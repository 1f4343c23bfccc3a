/**
 * @file
 * Graph-analytics sweep: the graph workload family (BFS, PageRank,
 * SSSP; push and pull; power-law and mesh) across all seven protocol
 * columns — the paper's five, DD+SE, and the per-region DD+PR column
 * this family was built to exercise.
 *
 * Pull variants declare their frontier-style double buffers as
 * streaming regions, so DD+PR writes them through to the home L2
 * instead of migrating ownership to a one-shot writer; the CSR arrays
 * are read-only regions valid across kernel boundaries. The sweep
 * asserts the headline result — DD+PR strictly beats both pure DD and
 * pure GD in cycles on at least one pull (frontier-heavy) cell — in
 * addition to the usual functional checks, unless --no-win-check is
 * given (reduced scales may reorder close columns).
 *
 * Usage: graph_sweep [common flags] [--no-win-check]
 */

#include <cstring>

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    bool win_check = true;
    Options opts = Options::parse(
        argc, argv,
        [&](const char *arg) {
            if (std::strcmp(arg, "--no-win-check") == 0) {
                win_check = false;
                return true;
            }
            return false;
        },
        " [--no-win-check]");

    std::vector<std::string> names;
    for (const auto *desc : workloadsInGroup("graph"))
        names.push_back(desc->name);

    // Every row of the column table, DD+SE included unconditionally:
    // this sweep exists to compare region specialization against
    // every other point in the design space.
    const std::vector<ProtocolConfig> configs = ProtocolConfig::all();
    auto results = runMatrix(names, configs, opts);
    std::cout << "=== Graph sweep: BFS/PageRank/SSSP x push/pull x "
                 "power-law/mesh, all configs (normalized to DD) "
                 "===\n\n";
    emitFigure(results, 2, "GraphSweep", opts);

    // Headline check: region specialization must pay off on at least
    // one frontier-heavy (pull) cell against both baselines.
    std::size_t gd_col = 0, dd_col = 2, ddpr_col = configs.size() - 1;
    unsigned wins = 0;
    for (const auto &wr : results) {
        if (wr.workload.find("_PULL") == std::string::npos)
            continue;
        Tick gd = wr.runs[gd_col].cycles;
        Tick dd = wr.runs[dd_col].cycles;
        Tick ddpr = wr.runs[ddpr_col].cycles;
        if (ddpr < dd && ddpr < gd)
            ++wins;
    }
    std::cout << "DD+PR beats both DD and GD on " << wins
              << " pull cells\n";
    if (win_check && wins == 0) {
        std::cerr << "GRAPH SWEEP FAILURE: DD+PR beat neither DD nor "
                     "GD on any pull cell\n";
        return 1;
    }
    maybeWriteJson(opts, "graph_sweep", results, timer);
    return 0;
}

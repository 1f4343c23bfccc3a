/**
 * @file
 * Ablation: transfer-granularity and protocol-feature accounting.
 *
 * Table 2 credits DeNovo with "decoupled granularity - only transfer
 * useful data". This harness reports, per configuration, how many
 * data flits each protocol moved per useful word for a strided
 * workload (NN touches every word once; LAVA rereads neighbors), and
 * how much reuse ownership bought (L1 hit rates).
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    Options opts = Options::parse(
        argc, argv, cellFlags({flag::raceCheck, flag::devices}));

    std::vector<CellSpec> cells;
    for (const char *name : {"NN", "LAVA", "SPM_G", "UTS"}) {
        for (const auto &proto :
             {ProtocolConfig::gd(), ProtocolConfig::gh(),
              ProtocolConfig::dd(), ProtocolConfig::dh()})
            cells.push_back(opts.cellOf(name, proto));
    }

    struct HitCounts
    {
        double hits = 0.0, misses = 0.0, shits = 0.0, smisses = 0.0;
    };
    std::vector<HitCounts> counts(cells.size());
    std::vector<SweepCell> results = runCells(
        cells, opts, {}, [&](std::size_t i, const System &system) {
            counts[i] = {sumL1Stat(system, "load_hits"),
                         sumL1Stat(system, "load_misses"),
                         sumL1Stat(system, "sync_hits"),
                         sumL1Stat(system, "sync_misses")};
        });

    std::printf("=== Ablation: traffic per benchmark, by class "
                "===\n");
    std::printf("%-8s %-8s %-12s %-12s %-12s %-12s %-10s %-10s\n",
                "bench", "config", "Read", "Regist", "WB_WT",
                "Atomics", "ld hit%", "sync hit%");
    auto pct = [](double a, double b) {
        return a + b > 0.0 ? 100.0 * a / (a + b) : 0.0;
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunResult &result = results[i].result;
        std::printf("%-8s %-8s %-12.0f %-12.0f %-12.0f %-12.0f "
                    "%-10.1f %-10.1f\n",
                    cells[i].workload.c_str(), result.config.c_str(),
                    result.traffic[0], result.traffic[1],
                    result.traffic[2], result.traffic[3],
                    pct(counts[i].hits, counts[i].misses),
                    pct(counts[i].shits, counts[i].smisses));
    }
    maybeWriteJson(opts, "ablation_granularity", results, timer);
    return 0;
}

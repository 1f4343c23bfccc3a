/**
 * @file
 * Figure 4: benchmarks with mostly locally scoped / hybrid
 * synchronization; all five configurations, normalized to GD.
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    Options opts = Options::parse(argc, argv);
    std::vector<std::string> names;
    for (const auto *desc : workloadsInGroup("local-sync"))
        names.push_back(desc->name);

    auto results = runMatrix(names, ProtocolConfig::studied(), opts);
    std::cout << "=== Figure 4: locally scoped / hybrid "
                 "synchronization benchmarks (normalized to GD) "
                 "===\n\n";
    emitFigure(results, 0, "Fig4", opts);

    // Headline comparisons from Section 6.
    auto avg = [&](int metric, std::size_t cfg, std::size_t base) {
        return averageNormalized(results, metric, cfg, base);
    };
    std::printf("GH vs GD:    %.0f%% lower execution time, %.0f%% "
                "lower energy (paper: 46%%, 42%%)\n",
                (1.0 - avg(0, 1, 0)) * 100.0,
                (1.0 - avg(1, 1, 0)) * 100.0);
    std::printf("GH vs DD:    %.0f%% lower execution time, %.0f%% "
                "lower energy (paper: 6%%, 4%%)\n",
                (1.0 - avg(0, 1, 2)) * 100.0,
                (1.0 - avg(1, 1, 2)) * 100.0);
    std::printf("GH vs DD+RO: %.0f%% lower execution time, %.0f%% "
                "lower energy (paper: ~0%%, ~0%%)\n",
                (1.0 - avg(0, 1, 3)) * 100.0,
                (1.0 - avg(1, 1, 3)) * 100.0);
    std::printf("DH vs GH:    %.0f%% lower execution time, %.0f%% "
                "lower energy (paper: DH best overall)\n",
                (1.0 - avg(0, 4, 1)) * 100.0,
                (1.0 - avg(1, 4, 1)) * 100.0);
    maybeWriteJson(opts, "fig4_local_sync", results, timer);
    return 0;
}

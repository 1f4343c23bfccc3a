/**
 * @file
 * Headline reproduction: every quantitative claim from the paper's
 * abstract and Section 6, measured on this implementation, printed
 * as paper-vs-measured rows (the source for EXPERIMENTS.md).
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    Options opts = Options::parse(argc, argv);
    opts.breakdowns = false;

    auto names_of = [](const std::string &group) {
        std::vector<std::string> names;
        for (const auto *desc : workloadsInGroup(group))
            names.push_back(desc->name);
        return names;
    };

    std::vector<WorkloadResults> all;
    auto keep = [&](const std::vector<WorkloadResults> &res) {
        all.insert(all.end(), res.begin(), res.end());
    };

    std::cout << "=== Headline claims: paper vs this reproduction "
                 "===\n\n";

    // Claim 1 (Fig 2): no-sync apps, DeNovo comparable to GPU.
    {
        auto res = runMatrix(names_of("no-sync"),
                             {ProtocolConfig::gd(),
                              ProtocolConfig::dd()},
                             opts);
        keep(res);
        double time = averageNormalized(res, 0, 1, 0);
        double traffic = averageNormalized(res, 2, 1, 0);
        std::printf("[no-sync apps]   paper: D* within ~0.5%% of G* "
                    "time, -5%% traffic | measured: %+.1f%% time, "
                    "%+.1f%% traffic\n",
                    (time - 1.0) * 100.0, (traffic - 1.0) * 100.0);
    }

    // Claim 2 (Fig 3): global sync, DD wins big.
    {
        auto res = runMatrix(names_of("global-sync"),
                             {ProtocolConfig::gd(),
                              ProtocolConfig::dd()},
                             opts);
        keep(res);
        std::printf("[global sync]    paper: D* -28%% time, -51%% "
                    "energy, -81%% traffic vs G* | measured: "
                    "%+.0f%% time, %+.0f%% energy, %+.0f%% traffic\n",
                    (averageNormalized(res, 0, 1, 0) - 1.0) * 100.0,
                    (averageNormalized(res, 1, 1, 0) - 1.0) * 100.0,
                    (averageNormalized(res, 2, 1, 0) - 1.0) * 100.0);
    }

    // Claims 3-5 (Fig 4): local sync orderings.
    {
        auto res = runMatrix(names_of("local-sync"),
                             ProtocolConfig::studied(), opts);
        keep(res);
        std::printf("[local sync]     paper: GH -46%% time vs GD | "
                    "measured: %+.0f%%\n",
                    (averageNormalized(res, 0, 1, 0) - 1.0) * 100.0);
        std::printf("[local sync]     paper: GH -6%% time vs DD "
                    "(max -13%%) | measured avg: %+.0f%%\n",
                    (averageNormalized(res, 0, 1, 2) - 1.0) * 100.0);
        std::printf("[local sync]     paper: DD+RO ~= GH | measured "
                    "GH vs DD+RO: %+.0f%% time\n",
                    (averageNormalized(res, 0, 1, 3) - 1.0) * 100.0);
        std::printf("[local sync]     paper: DH best protocol | "
                    "measured DH vs GH: %+.0f%% time, DH vs DD: "
                    "%+.0f%% time\n",
                    (averageNormalized(res, 0, 4, 1) - 1.0) * 100.0,
                    (averageNormalized(res, 0, 4, 2) - 1.0) * 100.0);
    }

    maybeWriteJson(opts, "headline", all, timer);
    return 0;
}

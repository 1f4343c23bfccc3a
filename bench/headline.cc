/**
 * @file
 * Headline reproduction: every quantitative claim from the paper's
 * abstract and Section 6, measured on the Fig. 2-4 matrices and
 * printed as paper-vs-measured rows (the source for EXPERIMENTS.md).
 * Exits 1 when a direction EXPERIMENTS.md lists as reproduced flips
 * (kReproducedClaims in matrices.hh).
 */

#include "matrices.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    Options opts = Options::parse(
        argc, argv, cellFlags({flag::raceCheck, flag::devices}));

    FigureResults figures;
    std::vector<SweepCell> all;
    const std::vector<WorkloadResults> *last = nullptr;
    // Sweep one of the Fig. 2-4 rows; change() reads the last one.
    auto run = [&](const std::string &name) {
        const MatrixSpec &spec = matrix(name);
        std::vector<SweepCell> cells =
            runMatrix(spec, spec.machines.front(), opts);
        last = &(figures[name] = byWorkload(cells));
        all.insert(all.end(), cells.begin(), cells.end());
    };
    // Signed percent change of column @p config against @p baseline.
    auto change = [&](int metric, const char *config,
                      const char *baseline) {
        return (averageOf(*last, metric, config, baseline) - 1.0) * 100.0;
    };

    std::cout << "=== Headline claims: paper vs this reproduction "
                 "===\n\n";

    run("fig2_apps");
    std::printf("[no-sync apps]   paper: D* within ~0.5%% of G* "
                "time, -5%% traffic | measured: %+.1f%% time, "
                "%+.1f%% traffic\n",
                change(0, "DD", "GD"), change(2, "DD", "GD"));

    run("fig3_global_sync");
    std::printf("[global sync]    paper: D* -28%% time, -51%% "
                "energy, -81%% traffic vs G* | measured: "
                "%+.0f%% time, %+.0f%% energy, %+.0f%% traffic\n",
                change(0, "DD", "GD"), change(1, "DD", "GD"),
                change(2, "DD", "GD"));

    run("fig4_local_sync");
    std::printf("[local sync]     paper: GH -46%% time vs GD | "
                "measured: %+.0f%%\n", change(0, "GH", "GD"));
    std::printf("[local sync]     paper: GH -6%% time vs DD "
                "(max -13%%) | measured avg: %+.0f%%\n",
                change(0, "GH", "DD"));
    std::printf("[local sync]     paper: DD+RO ~= GH | measured "
                "GH vs DD+RO: %+.0f%% time\n",
                change(0, "GH", "DD+RO"));
    std::printf("[local sync]     paper: DH best protocol | "
                "measured DH vs GH: %+.0f%% time, DH vs DD: "
                "%+.0f%% time\n",
                change(0, "DH", "GH"), change(0, "DH", "DD"));

    maybeWriteJson(opts, "headline", all, timer);
    int status = 0;
    for (const std::string &flip : flippedClaims(figures)) {
        std::cerr << "HEADLINE FAILURE: " << flip << "\n";
        status = 1;
    }
    return status;
}

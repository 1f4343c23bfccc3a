/**
 * @file
 * Example: compare all five configurations on one workload and show
 * where time, energy, and traffic go — the paper's core methodology
 * in ~100 lines of the public API.
 *
 * Usage: protocol_comparison [workload] [scale-percent]
 */

#include <cstdio>
#include <string>

#include "core/system.hh"
#include "runner/cell_spec.hh"
#include "workloads/registry.hh"

using namespace nosync;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "UTS";
    std::optional<unsigned long long> parsed =
        argc > 2 ? parseDecimal(argv[2], 1, 100) : 25;
    if (!parsed) {
        std::fprintf(stderr,
                     "error: expected a number in [1, 100], got '%s'\n"
                     "usage: %s [workload] [scale-percent]\n",
                     argv[2], argv[0]);
        return 2;
    }
    unsigned scale = static_cast<unsigned>(*parsed);

    std::printf("Comparing configurations on %s (scale %u%%)\n\n",
                name.c_str(), scale);
    std::printf("%-7s %-12s %-12s %-12s %-10s %-10s\n", "config",
                "cycles", "energy(uJ)", "flits", "ld-hit%",
                "sync-hit%");

    RunResult baseline;
    for (const ProtocolConfig &proto : ProtocolConfig::studied()) {
        auto workload = makeScaled(name, scale);
        SystemConfig config;
        config.protocol = proto;
        System system(config);
        RunResult result = system.run(*workload);
        if (!result.ok()) {
            std::fprintf(stderr, "%s failed its functional check on "
                         "%s\n", name.c_str(),
                         result.config.c_str());
            return 1;
        }

        double hits = 0, misses = 0, shits = 0, smisses = 0;
        for (unsigned cu = 0; cu < system.numCus(); ++cu) {
            std::string prefix = "l1." + std::to_string(cu);
            hits += system.stats().find(prefix + ".load_hits")->value();
            misses += system.stats().find(prefix + ".load_misses")->value();
            shits += system.stats().find(prefix + ".sync_hits")->value();
            smisses += system.stats().find(prefix + ".sync_misses")->value();
        }
        auto pct = [](double a, double b) {
            return a + b > 0 ? 100.0 * a / (a + b) : 0.0;
        };
        std::printf("%-7s %-12llu %-12.2f %-12.0f %-10.1f %-10.1f\n",
                    result.config.c_str(),
                    static_cast<unsigned long long>(result.cycles),
                    result.energyTotal / 1e6, result.trafficTotal,
                    pct(hits, misses), pct(shits, smisses));
        if (baseline.cycles == 0)
            baseline = result;
    }

    std::printf("\nReading the table: DeNovo turns repeated "
                "synchronization into L1 hits\n"
                "(sync-hit%%) and keeps written data cached across "
                "synchronization\n"
                "boundaries (ld-hit%%), which is where its time, "
                "energy, and traffic\n"
                "advantages come from.\n");
    return 0;
}

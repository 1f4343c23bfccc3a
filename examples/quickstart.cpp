/**
 * @file
 * Quickstart: build a system, run one benchmark on two
 * configurations, print the three metrics the paper reports.
 *
 * Usage: quickstart [workload] [scale-percent]
 */

#include <iostream>
#include <string>

#include "core/system.hh"
#include "runner/cell_spec.hh"
#include "workloads/registry.hh"

using namespace nosync;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "SPM_G";
    std::optional<unsigned long long> parsed =
        argc > 2 ? parseDecimal(argv[2], 1, 100) : 30;
    if (!parsed) {
        std::cerr << "error: expected a number in [1, 100], got '"
                  << argv[2] << "'\nusage: " << argv[0]
                  << " [workload] [scale-percent]\n";
        return 2;
    }
    unsigned scale = static_cast<unsigned>(*parsed);

    SystemConfig base;
    for (const ProtocolConfig &proto : ProtocolConfig::studied()) {
        auto workload = makeScaled(name, scale);
        System system(base.with(proto));
        RunResult result = system.run(*workload);

        std::cout << name << " on " << result.config << ": "
                  << result.cycles << " cycles, "
                  << result.energyTotal / 1e6 << " uJ, "
                  << result.trafficTotal << " flit-crossings"
                  << (result.ok() ? "" : "  [CHECK FAILED]")
                  << "\n";
        for (const auto &failure : result.checkFailures)
            std::cout << "    " << failure << "\n";
        if (!result.ok())
            return 1;
    }
    return 0;
}

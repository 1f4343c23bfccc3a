/**
 * @file
 * General benchmark runner: run any Table 4 workload on any
 * configuration, optionally dumping the full statistics report.
 *
 * Usage: run_benchmark <workload> <GD|GH|DD|DD+RO|DH|DD+SE|DD+PR>
 *                      [scale-percent] [--stats] [--watchdog=CYCLES]
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "core/system.hh"
#include "parse_number.hh"
#include "workloads/registry.hh"

using namespace nosync;

namespace
{

ProtocolConfig
parseConfig(const std::string &name)
{
    if (std::optional<ProtocolConfig> config =
            ProtocolConfig::byName(name))
        return *config;
    std::cerr << "unknown config " << name
              << " (want GD, GH, DD, DD+RO, DH, DD+SE, or DD+PR)\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string usage = std::string(argv[0]) +
                        " <workload> <config> [scale%] [--stats]"
                        " [--watchdog=CYCLES]";
    if (argc < 3) {
        std::cerr << "usage: " << usage << "\n";
        return 2;
    }
    SystemConfig config;
    config.protocol = parseConfig(argv[2]);
    unsigned scale = 100;
    bool dump_stats = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0) {
            dump_stats = true;
        } else if (std::strncmp(argv[i], "--watchdog=", 11) == 0) {
            config.execution.maxCycles =
                examples::parseNumber(argv[i] + 11, ~0ull, usage);
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            std::cerr << "error: unknown flag " << argv[i] << "\n";
            return 2;
        } else {
            scale = static_cast<unsigned>(
                examples::parseNumber(argv[i], 100, usage));
        }
    }

    auto workload = makeScaled(argv[1], scale);
    System system(config);
    RunResult result = system.run(*workload);

    std::cout << result.workload << " on " << result.config << "\n"
              << "  cycles:          " << result.cycles << "\n"
              << "  energy (pJ):     " << result.energyTotal << "\n";
    for (std::size_t c = 0; c < kNumEnergyComponents; ++c) {
        std::cout << "    " << energyComponentNames()[c] << ": "
                  << result.energy[c] << "\n";
    }
    std::cout << "  flit-crossings:  " << result.trafficTotal << "\n";
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        std::cout << "    " << trafficClassNames()[c] << ": "
                  << result.traffic[c] << "\n";
    }
    if (dump_stats)
        std::cout << system.stats().dump();

    if (!result.ok()) {
        std::cout << "CHECK FAILURES:\n";
        for (const auto &failure : result.checkFailures)
            std::cout << "  " << failure << "\n";
        return 1;
    }
    std::cout << "check: OK\n";
    return 0;
}

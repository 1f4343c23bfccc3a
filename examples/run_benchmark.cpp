/**
 * @file
 * General benchmark runner: run any Table 4 workload on any
 * configuration, optionally dumping the full statistics report.
 *
 * Usage: run_benchmark <workload> <GD|GH|DD|DD+RO|DH|DD+SE|DD+PR>
 *                      [scale-percent] [--stats] [--progress]
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>

#include "core/system.hh"
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
    if (argc < 3) {
        std::cerr << "usage: " << argv[0]
                  << " <workload> <config> [scale%] [--stats]"
                  << " [--progress]\n";
        return 2;
    }
    std::string workload_name = argv[1];
    ProtocolConfig proto = parseConfig(argv[2]);
    unsigned scale = 100;
    bool dump_stats = false;
    bool progress = false;
    Tick watchdog = 0;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0)
            dump_stats = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            progress = true;
        else if (std::strncmp(argv[i], "--watchdog=", 11) == 0)
            watchdog = std::strtoull(argv[i] + 11, nullptr, 10);
        else
            scale = static_cast<unsigned>(std::atoi(argv[i]));
    }

    auto workload = makeScaled(workload_name, scale);
    SystemConfig config;
    config.protocol = proto;
    if (watchdog != 0)
        config.execution.maxCycles = watchdog;
    System system(config);

    if (progress) {
        // Periodic heartbeat so hangs are visible.
        std::function<void()> beat = [&] {
            std::cerr << "  tick " << system.eventQueue().now()
                      << " events "
                      << system.eventQueue().executed() << "\n";
            system.eventQueue().scheduleIn(100000, beat);
        };
        system.eventQueue().scheduleIn(100000, beat);
    }

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

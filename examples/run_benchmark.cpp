/**
 * @file
 * Run one cell: any Table 4 workload on any configuration and any
 * machine a harness sweeps, named by its cell line
 * (runner/cell_spec.hh). Every BENCH record cell carries its line, and
 * a harness's failure prints the line that re-runs the cell here.
 *
 * Usage: run_benchmark <workload> <GD|GH|DD|DD+RO|DH|DD+SE|DD+PR>
 *                      [key=value]... [--stats] [--json=PATH]
 *   e.g. run_benchmark FAM_G DD scale=20 mesh=12 hop=6 max_cycles=500000
 */

#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/report.hh"
#include "core/system.hh"
#include "runner/bench_json.hh"
#include "workloads/registry.hh"

using namespace nosync;

int
main(int argc, char **argv)
{
    std::string line, json_path;
    bool dump_stats = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--stats") {
            dump_stats = true;
        } else if (arg.starts_with("--json=")) {
            json_path = arg.substr(7);
        } else if (arg.starts_with("--")) {
            std::cerr << "error: unknown flag " << arg << "\n";
            return 2;
        } else {
            line += (line.empty() ? "" : " ") + std::string(arg);
        }
    }
    CellSpec cell;
    try {
        cell = CellSpec::fromLine(line);
    } catch (const std::invalid_argument &err) {
        std::cerr << "error: " << err.what() << "\nusage: " << argv[0]
                  << " <workload> <config> [key=value]... [--stats]"
                     " [--json=PATH]\n";
        return 2;
    }

    auto workload = makeScaled(cell.workload, cell.scale);
    System system(cell.config());
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

    SweepRecord record{"run_benchmark", 1, result.host.millis,
                       {SweepCell{cell, result}}};
    if (!json_path.empty() && !record.writeJson(json_path)) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 1;
    }
    if (!result.ok()) {
        std::cout << "CHECK FAILURES:\n";
        for (const auto &failure : result.checkFailures)
            std::cout << "  " << failure << "\n";
        if (result.hang)
            std::cout << renderHangReport(*result.hang);
        return 1;
    }
    std::cout << "check: OK\n";
    return 0;
}

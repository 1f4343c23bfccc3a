/**
 * @file
 * Chaos sweep: fault-injection robustness harness.
 *
 * Runs a set of synchronization-heavy workloads across the five
 * studied configurations (plus DD+SE under --sync-engine), each
 * under several fault seeds (message latency jitter, cross-pair
 * reordering, duplicated idempotent requests). For every run it
 * demands:
 *
 *  - the workload completes (no hang, no watchdog),
 *  - the functional check and the quiesced invariant sweep are clean,
 *  - for timing-independent workloads, the final memory image matches
 *    a fault-free golden execution word for word,
 *  - re-running the same seed reproduces the exact cycle count,
 *    energy, and traffic (determinism of the injected faults).
 *
 * Any violation prints full diagnostics (including the structured
 * hang report when the run hung) and exits non-zero.
 *
 * The parallel unit is one (workload, config) cell: the fault-free
 * golden execution is computed exactly once per cell and shared by
 * every fault seed's memory compare, and each cell runs on its own
 * thread under --jobs=N.
 *
 * Writes no trace or race-report files, so it takes neither --trace
 * nor --race-json.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/protocol_checker.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::bench;

namespace
{

SystemConfig
makeConfig(const ProtocolConfig &proto, const Options &opts,
           Tick check_period, std::uint64_t fault_seed)
{
    SystemConfig config = cellConfig(proto, opts);
    config.checking.checkPeriod = check_period;
    if (fault_seed != 0) {
        config.execution.faults.enabled = true;
        config.execution.faults.seed = fault_seed;
    }
    return config;
}

/** Everything one (workload, config) cell produced. */
struct CellOutcome
{
    unsigned runs = 0;
    std::size_t faultsInjected = 0;
    /** Failure diagnostics; empty = cell clean. */
    std::string failure;
    /** Per-run results (golden first) for the JSON record. */
    std::vector<SweepCell> cells;
};

} // namespace

int
main(int argc, char **argv)
{
    WallTimer timer;
    unsigned num_seeds = 5;
    Tick check_period = 2000;
    Options defaults;
    defaults.scalePercent = 30; // chaos default: fast sweeps
    Options opts = Options::parse(
        argc, argv,
        {flag::scale, flag::jobs, flag::json, flag::raceCheck,
         flag::maxCycles, flag::devices, flag::syncEngine,
         {"--seeds", FlagSpec::Kind::Number, 1, 1000,
          "a seed count in [1, 1000]",
          [&num_seeds](Options &, unsigned long long num, const char *) {
              num_seeds = static_cast<unsigned>(num);
          }},
         {"--check-period", FlagSpec::Kind::Number, 1, ~0ull,
          "a positive cycle count",
          [&check_period](Options &, unsigned long long num,
                          const char *) {
              check_period = static_cast<Tick>(num);
          }}},
        defaults);

    const std::vector<std::string> workloads = {
        "FAM_G",  // decoupled fetch-add mutex, global scope
        "SS_L",   // sleeping semaphore, local scope
        "TB_LG",  // tree barrier, mixed scope
    };
    const std::vector<ProtocolConfig> configs = standardConfigs(opts);

    struct CellSpec
    {
        const std::string *workload;
        const ProtocolConfig *proto;
    };
    std::vector<CellSpec> specs;
    for (const auto &name : workloads) {
        for (const auto &proto : configs)
            specs.push_back(CellSpec{&name, &proto});
    }

    // One cell = golden + all seeds + replay for one
    // (workload, config); diagnostics are collected, not printed, so
    // failures emerge in deterministic cell order after aggregation.
    auto run_cell = [&](const CellSpec &spec) {
        const std::string &name = *spec.workload;
        const ProtocolConfig &proto = *spec.proto;
        CellOutcome out;
        std::ostringstream err;

        auto run_one = [&](std::uint64_t fault_seed,
                           RunResult &result_out) {
            auto workload = makeScaled(name, opts.scalePercent);
            auto system = std::make_unique<System>(
                makeConfig(proto, opts, check_period, fault_seed));
            result_out = system->run(*workload);
            ++out.runs;
            out.cells.push_back(SweepCell{});
            out.cells.back().scalePercent = opts.scalePercent;
            out.cells.back().faultSeed = fault_seed;
            out.cells.back().result = result_out;
            if (!result_out.ok()) {
                err << "CHAOS FAILURE: " << name << " on "
                    << proto.shortName()
                    << " fault-seed=" << fault_seed << "\n";
                for (const auto &failure : result_out.checkFailures)
                    err << "  " << failure << "\n";
                if (result_out.hang)
                    err << renderHangReport(*result_out.hang);
                system.reset();
            }
            return system;
        };

        bool deterministic =
            makeScaled(name, opts.scalePercent)
                ->deterministicOutput();

        // Golden: fault-free reference execution, computed once per
        // cell and reused by every seed's memory compare.
        RunResult golden_result;
        auto golden = run_one(0, golden_result);
        if (!golden) {
            out.failure = err.str();
            return out;
        }

        for (unsigned s = 1; s <= num_seeds; ++s) {
            std::uint64_t seed = 0xc0ffee + 977 * s;
            SweepRunner::log("  " + name + " on " +
                             proto.shortName() + " fault-seed " +
                             std::to_string(seed) + "...");
            RunResult result;
            auto system = run_one(seed, result);
            if (!system) {
                out.failure = err.str();
                return out;
            }
            if (const FaultInjector *f = system->faults()) {
                out.faultsInjected += f->jittered() + f->delayed() +
                                      f->duplicated();
            }

            if (deterministic) {
                auto diffs =
                    ProtocolChecker::compareMemory(*system, *golden);
                if (!diffs.empty()) {
                    err << "CHAOS FAILURE: " << name << " on "
                        << proto.shortName() << " fault-seed=" << seed
                        << " diverged from the golden run:\n";
                    for (const auto &d : diffs)
                        err << "  " << d << "\n";
                    out.failure = err.str();
                    return out;
                }
            }

            if (s == 1) {
                // Reproducibility: the same seed must replay to the
                // exact same cycle count, energy, and traffic.
                RunResult replay;
                auto replay_sys = run_one(seed, replay);
                if (!replay_sys) {
                    out.failure = err.str();
                    return out;
                }
                if (replay.cycles != result.cycles ||
                    replay.energyTotal != result.energyTotal ||
                    replay.trafficTotal != result.trafficTotal) {
                    err << "CHAOS FAILURE: " << name << " on "
                        << proto.shortName() << " fault-seed=" << seed
                        << " is not reproducible: " << result.cycles
                        << " vs " << replay.cycles << " cycles, "
                        << result.trafficTotal << " vs "
                        << replay.trafficTotal << " flits\n";
                    out.failure = err.str();
                    return out;
                }
                auto diffs = ProtocolChecker::compareMemory(
                    *replay_sys, *system);
                if (!diffs.empty()) {
                    err << "CHAOS FAILURE: " << name << " on "
                        << proto.shortName() << " fault-seed=" << seed
                        << " replay memory diverged\n";
                    out.failure = err.str();
                    return out;
                }
            }
        }
        return out;
    };

    SweepRunner runner(opts.jobs);
    auto outcomes = runner.map(
        specs.size(),
        [&](std::size_t i) { return run_cell(specs[i]); });

    unsigned runs = 0;
    std::size_t faults_injected = 0;
    SweepRecord record;
    record.harness = "chaos_sweep";
    record.jobs = opts.jobs;
    for (const auto &out : outcomes) {
        runs += out.runs;
        faults_injected += out.faultsInjected;
        for (const auto &cell : out.cells)
            record.cells.push_back(cell);
        if (!out.failure.empty()) {
            std::cerr << out.failure;
            return 1;
        }
    }

    if (!opts.jsonPath.empty()) {
        record.wallMillis = timer.millis();
        if (!record.writeJson(opts.jsonPath)) {
            std::cerr << "error: cannot write " << opts.jsonPath << "\n";
            return 1;
        }
    }

    std::cout << "chaos sweep clean: " << runs << " runs ("
              << workloads.size() << " workloads x " << configs.size()
              << " configs x " << num_seeds
              << " fault seeds + goldens/replays), "
              << faults_injected << " faults injected, zero invariant "
              << "violations, zero hangs\n";
    return 0;
}

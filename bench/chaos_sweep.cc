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

#include <memory>
#include <sstream>

#include "bench_util.hh"
#include "core/protocol_checker.hh"

using namespace nosync;
using namespace nosync::bench;

namespace
{

/** Everything one (workload, config) cell produced. */
struct CellOutcome
{
    unsigned runs = 0;
    std::size_t faultsInjected = 0;
    /** Failure diagnostics; empty = cell clean. */
    std::string failure;
    /** The golden and seed runs, for the record; the replay is a check. */
    std::vector<SweepCell> cells;
};

} // namespace

int
main(int argc, char **argv)
{
    WallTimer timer;
    unsigned num_seeds = 5;
    Options defaults;
    defaults.cell.scale = 30; // chaos default: fast sweeps
    defaults.cell.checkPeriod = 2000;
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
          [](Options &o, unsigned long long num, const char *) {
              o.cell.checkPeriod = static_cast<Tick>(num);
          }}},
        defaults);

    const std::vector<std::string> workloads = {
        "FAM_G",  // decoupled fetch-add mutex, global scope
        "SS_L",   // sleeping semaphore, local scope
        "TB_LG",  // tree barrier, mixed scope
    };
    const std::vector<ProtocolConfig> configs = standardConfigs(opts);

    std::vector<CellSpec> specs;
    for (const auto &name : workloads) {
        for (const auto &proto : configs)
            specs.push_back(opts.cellOf(name, proto));
    }

    // One cell = golden + all seeds + replay for one
    // (workload, config); diagnostics are collected, not printed, so
    // failures emerge in deterministic cell order after aggregation.
    auto run_cell = [&](const CellSpec &golden_spec) {
        const std::string &name = golden_spec.workload;
        const std::string proto = golden_spec.column.shortName();
        CellOutcome out;
        std::ostringstream err;
        // "CHAOS FAILURE: <cell><what>" and the line that re-runs it.
        auto fail = [&](const CellSpec &spec, const std::string &what) {
            err << "CHAOS FAILURE: " << name << " on " << proto
                << " fault-seed=" << spec.faultSeed << what
                << "\n  re-run: run_benchmark " << spec.toLine() << "\n";
            return false;
        };
        // Run @p spec, a record cell if @p record; no System if it failed.
        auto run_one = [&](const CellSpec &spec, bool record) {
            auto system = std::make_unique<System>(spec.config());
            RunResult result = system->run(*makeScaled(name, spec.scale));
            ++out.runs;
            if (record)
                out.cells.push_back(SweepCell{spec, result});
            if (!result.ok()) {
                fail(spec, "");
                for (const auto &failure : result.checkFailures)
                    err << "  " << failure << "\n";
                if (result.hang)
                    err << renderHangReport(*result.hang);
                system.reset();
            }
            return std::pair{std::move(system), std::move(result)};
        };
        bool deterministic =
            makeScaled(name, golden_spec.scale)->deterministicOutput();

        auto check = [&] {
            // Golden: fault-free reference execution, computed once
            // per cell and reused by every seed's memory compare.
            auto golden = run_one(golden_spec, true).first;
            if (!golden)
                return false;
            for (unsigned s = 1; s <= num_seeds; ++s) {
                CellSpec spec = golden_spec;
                spec.faultSeed = 0xc0ffee + 977 * s;
                SweepRunner::log("  " + name + " on " + proto +
                                 " fault-seed " +
                                 std::to_string(spec.faultSeed) + "...");
                auto [system, result] = run_one(spec, true);
                if (!system)
                    return false;
                if (const FaultInjector *f = system->faults()) {
                    out.faultsInjected += f->jittered() + f->delayed() +
                                          f->duplicated();
                }
                if (deterministic) {
                    auto diffs =
                        ProtocolChecker::compareMemory(*system, *golden);
                    if (!diffs.empty()) {
                        fail(spec, " diverged from the golden run:");
                        for (const auto &d : diffs)
                            err << "  " << d << "\n";
                        return false;
                    }
                }
                if (s > 1)
                    continue;
                // Reproducibility: the same seed must replay to the
                // exact same cycle count, energy, and traffic.
                auto [replay_sys, replay] = run_one(spec, false);
                if (!replay_sys)
                    return false;
                if (replay.cycles != result.cycles ||
                    replay.energyTotal != result.energyTotal ||
                    replay.trafficTotal != result.trafficTotal) {
                    std::ostringstream what;
                    what << " is not reproducible: " << result.cycles
                         << " vs " << replay.cycles << " cycles, "
                         << result.trafficTotal << " vs "
                         << replay.trafficTotal << " flits";
                    return fail(spec, what.str());
                }
                if (!ProtocolChecker::compareMemory(*replay_sys, *system)
                         .empty())
                    return fail(spec, " replay memory diverged");
            }
            return true;
        };
        check();
        out.failure = err.str();
        return out;
    };

    auto outcomes = SweepRunner(opts.jobs).map(
        specs.size(), [&](std::size_t i) { return run_cell(specs[i]); });

    unsigned runs = 0;
    std::size_t faults_injected = 0;
    std::vector<SweepCell> cells;
    for (const auto &out : outcomes) {
        runs += out.runs;
        faults_injected += out.faultsInjected;
        cells.insert(cells.end(), out.cells.begin(), out.cells.end());
        if (!out.failure.empty()) {
            std::cerr << out.failure;
            return 1;
        }
    }
    maybeWriteJson(opts, "chaos_sweep", cells, timer);

    std::cout << "chaos sweep clean: " << runs << " runs ("
              << workloads.size() << " workloads x " << configs.size()
              << " configs x " << num_seeds
              << " fault seeds + goldens/replays), "
              << faults_injected << " faults injected, zero invariant "
              << "violations, zero hangs\n";
    return 0;
}

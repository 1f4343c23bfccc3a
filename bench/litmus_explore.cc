/**
 * @file
 * Litmus-suite correctness gate with three modes:
 *
 *   --mode=explore     (default) stateless model checking:
 *                      exhaustively explore thread-block
 *                      interleavings and message delivery orders for
 *                      each litmus program under the six studied
 *                      configurations, with DPOR-style pruning
 *                      (src/explore/).
 *   --mode=axiom       static analysis only: evaluate each program
 *                      against its configuration's declarative axiom
 *                      set (src/axiom/) — allowed outcome sets and
 *                      race/scope-race verdicts without running a
 *                      single simulated cycle.
 *   --mode=cross-check both, then prove they agree cell by cell:
 *                      axiomatic outcome set == DPOR-explored
 *                      outcome set, static race verdict == the
 *                      dynamic detector's per-schedule verdicts. Any
 *                      disagreement is a named diff (program, config,
 *                      divergent outcome) and a failing exit.
 *
 * Every explored terminal state is checked against the program's
 * allowed outcomes and its race expectation (the mis-scoped program
 * must flag a scope race on GH/DH and be clean on GD/DD/DD+RO/DD+SE).
 * Exit codes are distinct and never silently degrade:
 *
 *   0  every cell explored to an empty frontier, all verdicts pass
 *      (and, under cross-check, all three layers agree)
 *   1  a violation: forbidden outcome, race mismatch, hang, replay
 *      divergence, or a static/operational disagreement
 *   2  usage error
 *   3  a schedule or wall budget expired before the frontier
 *      drained (the report carries explored/pruned/remaining
 *      coverage counts)
 *
 * The report JSON (--report=PATH, validated by
 * tools/validate_explore.py; --axiom-json=PATH, validated by
 * tools/validate_axiom.py) carries no wall-clock, host, or job-count
 * fields, so a --jobs=N run is byte-identical to serial — CI diffs
 * the two.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "axiom/checker.hh"
#include "bench_util.hh"
#include "explore/explorer.hh"
#include "explore/litmus.hh"

using namespace nosync;

namespace
{

/** Harness-local options, filled by the FlagSpec table below. */
struct LitmusOptions
{
    explore::ExploreBudget budget;
    std::string mode = "explore";
    std::string reportPath;
    std::string axiomJsonPath;
    std::string onlyProgram;
    std::string onlyConfig;
};

/**
 * The harness's flag table: --jobs and --max-cycles (a per-schedule
 * cycle cap) from the common rows, then its own rows, which capture
 * the LitmusOptions instance and ignore the bench::Options argument.
 * The litmus machine is fixed (one device, no scale), so no other
 * common flag applies.
 */
std::vector<bench::FlagSpec>
litmusFlags(LitmusOptions &local)
{
    using bench::FlagSpec;
    using bench::Options;
    using ull = unsigned long long;
    return {
        bench::flag::jobs,
        bench::flag::maxCycles,
        {"--mode", FlagSpec::Kind::String, 0, 0,
         "explore|axiom|cross-check",
         [&local](Options &, ull, const char *text) {
             local.mode = text;
         }},
        {"--schedules", FlagSpec::Kind::Number, 1, ~0ull,
         "a positive count",
         [&local](Options &, ull num, const char *) {
             local.budget.maxSchedules = num;
         }},
        // 0 is meaningful: TB interleavings only.
        {"--deliver-depth", FlagSpec::Kind::Number, 0, ~0ull,
         "a count",
         [&local](Options &, ull num, const char *) {
             local.budget.deliverDepth =
                 static_cast<unsigned>(num);
         }},
        {"--no-dpor", FlagSpec::Kind::Toggle, 0, 0, "",
         [&local](Options &, ull, const char *) {
             local.budget.dpor = false;
         }},
        {"--wall-budget", FlagSpec::Kind::Real, 0, 0,
         "positive seconds",
         [&local](Options &, ull, const char *text) {
             local.budget.maxWallSeconds = std::atof(text);
         }},
        {"--report", FlagSpec::Kind::String, 0, 0, "",
         [&local](Options &, ull, const char *text) {
             local.reportPath = text;
         }},
        {"--axiom-json", FlagSpec::Kind::String, 0, 0, "",
         [&local](Options &, ull, const char *text) {
             local.axiomJsonPath = text;
         }},
        {"--program", FlagSpec::Kind::String, 0, 0, "NAME",
         [&local](Options &, ull, const char *text) {
             local.onlyProgram = text;
         }},
        {"--config", FlagSpec::Kind::String, 0, 0, "NAME",
         [&local](Options &, ull, const char *text) {
             local.onlyConfig = text;
         }},
    };
}

int
runExplore(const explore::ExploreReport &report)
{
    std::uint64_t failed = report.countVerdict("fail");
    std::uint64_t exhausted = report.countVerdict("budget-exhausted");
    if (failed != 0) {
        std::cout << "\nFAIL: " << failed
                  << " cell(s) with violations\n";
    }
    if (exhausted != 0) {
        // Coverage report, loud and distinct: a budget-limited
        // exploration must never read as a clean pass.
        std::uint64_t frontier = 0;
        for (const explore::CellReport &cell : report.cells)
            frontier += cell.frontierRemaining;
        std::cout << "\nBUDGET EXHAUSTED: " << exhausted
                  << " cell(s) incomplete, " << frontier
                  << " frontier schedule(s) unexplored (raise "
                     "--schedules / --wall-budget)\n";
    }
    if (failed == 0 && exhausted == 0) {
        std::cout << "\nall cells explored to an empty frontier\n";
    }
    return report.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    LitmusOptions local;
    bench::Options defaults;
    defaults.cell.maxCycles = local.budget.maxCyclesPerSchedule;
    bench::Options opts =
        bench::Options::parse(argc, argv, litmusFlags(local), defaults);
    local.budget.maxCyclesPerSchedule = opts.cell.maxCycles;

    if (local.mode != "explore" && local.mode != "axiom" &&
        local.mode != "cross-check") {
        std::cerr << "error: --mode expects explore, axiom, or "
                     "cross-check, got '"
                  << local.mode << "'\n";
        return 2;
    }
    bool want_explore = local.mode != "axiom";
    bool want_axiom = local.mode != "explore";

    std::vector<std::string> programs;
    for (const std::string &name : explore::litmusSuite()) {
        if (local.onlyProgram.empty() || local.onlyProgram == name)
            programs.push_back(name);
    }
    if (programs.empty()) {
        std::cerr << "error: unknown litmus program '"
                  << local.onlyProgram << "'\n";
        return 2;
    }

    std::vector<ProtocolConfig> configs;
    for (const ProtocolConfig &proto : ProtocolConfig::all()) {
        if (local.onlyConfig.empty() ||
            local.onlyConfig == proto.shortName())
            configs.push_back(proto);
    }
    if (configs.empty()) {
        std::cerr << "error: unknown config '" << local.onlyConfig
                  << "' (GD, GH, DD, DD+RO, DH, DD+SE, DD+PR)\n";
        return 2;
    }

    // Static pass first: it is milliseconds per cell and its verdicts
    // stand alone in --mode=axiom.
    axiom::AxiomReport axiom_report;
    if (want_axiom) {
        for (const std::string &program : programs) {
            std::unique_ptr<explore::LitmusWorkload> workload =
                explore::makeLitmus(program);
            for (const ProtocolConfig &proto : configs) {
                axiom_report.cells.push_back(
                    axiom::checkCell(*workload, proto));
            }
        }
    }

    explore::ExploreReport explore_report;
    explore_report.budget = local.budget;
    if (want_explore) {
        SweepRunner runner(opts.jobs);
        explore::Explorer explorer(local.budget, runner);
        for (const std::string &program : programs) {
            for (const ProtocolConfig &proto : configs) {
                SweepRunner::log("  exploring " + program + " on " +
                                 proto.shortName() + "...");
                explore_report.cells.push_back(
                    explorer.exploreCell(program, proto));
            }
        }
    }

    if (local.mode == "cross-check") {
        for (std::size_t i = 0; i < axiom_report.cells.size(); ++i)
            axiom_report.crossChecks.push_back(axiom::crossCheck(
                axiom_report.cells[i], explore_report.cells[i]));
    }

    int exit_code = 0;
    if (want_axiom) {
        std::cout << "== litmus axiomatic check"
                  << (local.mode == "cross-check"
                          ? " (cross-checked against DPOR + dynamic "
                            "race detector)"
                          : "")
                  << " ==\n";
        axiom::renderAxiomReport(axiom_report, std::cout);
        if (axiom_report.allOk()) {
            std::cout << "\nall axiomatic cells consistent\n";
        } else {
            std::cout << "\nFAIL: static/operational disagreement "
                         "or oracle violation (see DIFF/BAD lines)\n";
        }
        exit_code = std::max(exit_code, axiom_report.exitCode());
    }
    if (want_explore) {
        std::cout << (want_axiom ? "\n" : "")
                  << "== litmus exploration ("
                  << (local.budget.dpor ? "DPOR" : "full enumeration")
                  << ", deliver depth " << local.budget.deliverDepth
                  << ") ==\n";
        explore::renderExploreReport(explore_report, std::cout);
        int explore_exit = runExplore(explore_report);
        // A violation (1) outranks budget exhaustion (3) outranks
        // a static-only failure already recorded above.
        if (explore_exit == 1)
            exit_code = 1;
        else if (explore_exit == 3 && exit_code == 0)
            exit_code = 3;
    }

    if (want_explore && !local.reportPath.empty()) {
        if (!explore::writeExploreJsonFile(explore_report,
                                           local.reportPath)) {
            std::cerr << "error: cannot write " << local.reportPath
                      << "\n";
            return 1;
        }
        std::cerr << "wrote " << local.reportPath << " ("
                  << explore_report.cells.size() << " cells)\n";
    }
    if (want_axiom && !local.axiomJsonPath.empty()) {
        if (!axiom::writeAxiomJsonFile(axiom_report,
                                       local.axiomJsonPath)) {
            std::cerr << "error: cannot write "
                      << local.axiomJsonPath << "\n";
            return 1;
        }
        std::cerr << "wrote " << local.axiomJsonPath << " ("
                  << axiom_report.cells.size() << " cells)\n";
    }
    return exit_code;
}

#include "explore/explorer.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/system.hh"
#include "explore/decision_log.hh"
#include "explore/exploring_policy.hh"
#include "explore/exploring_scheduler.hh"
#include "explore/litmus.hh"
#include "runner/json_writer.hh"

namespace nosync
{
namespace explore
{
namespace
{

/** Everything the driver needs back from one simulated schedule. */
struct ScheduleRun
{
    std::vector<unsigned> consumed;
    DecisionLog log;
    bool diverged = false;

    bool hung = false;
    std::string hangCode;

    std::string outcome;
    bool outcomeAllowed = false;

    std::uint64_t raceFailures = 0;
    bool scopeOnly = false; ///< every unsuppressed race is RaceKind::Scope
    bool truncated = false;

    /** Non-race check failures (protocol invariant sweeps). */
    std::vector<std::string> otherFailures;
};

std::string
scriptStr(const std::vector<unsigned> &script)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < script.size(); ++i)
        os << (i ? " " : "") << script[i];
    os << "]";
    return os.str();
}

/** Replay @p script through a fresh System. */
ScheduleRun
runSchedule(const std::string &program, const ProtocolConfig &proto,
            const ExploreBudget &budget,
            const std::vector<unsigned> &script)
{
    auto workload = makeLitmus(program);

    SystemConfig config;
    config.protocol = proto;
    config.checking.raceCheckEnabled = true;
    config.execution.maxCycles = budget.maxCyclesPerSchedule;

    ChoiceScript choices(script);
    DecisionLog log;
    System system(config);
    ExploringScheduler sched(system.eventQueue(), choices, log);
    ExploringPolicy policy(choices, log, budget.deliverDepth);
    policy.attach(&system.mesh());
    system.setTbScheduler(&sched);
    system.setDeliveryPolicy(&policy);

    RunResult result = system.run(*workload);

    ScheduleRun run;
    run.consumed = choices.consumed();
    run.diverged = choices.diverged();
    run.log = std::move(log);

    if (result.hang.has_value()) {
        run.hung = true;
        run.hangCode = result.hang->reasonCode;
        return run;
    }

    run.outcome = workload->outcome(system);
    run.outcomeAllowed = workload->allowed(run.outcome, proto);

    run.raceFailures = result.races.failureCount();
    run.truncated = result.races.truncated;
    bool scope_only = !result.races.truncated;
    for (const analysis::RaceRecord &race : result.races.races) {
        if (!race.suppressed &&
            race.kind != analysis::RaceKind::Scope)
            scope_only = false;
    }
    run.scopeOnly = scope_only;

    // checkFailures is workload/protocol failures followed by the
    // race descriptions; races are accounted separately above, so
    // peel the trailing race lines off to isolate the rest.
    std::uint64_t described = 0;
    for (const analysis::RaceRecord &race : result.races.races)
        if (!race.suppressed)
            ++described;
    std::size_t race_lines = static_cast<std::size_t>(described) +
                             (run.raceFailures > described ? 1 : 0);
    if (result.checkFailures.size() > race_lines) {
        run.otherFailures.assign(result.checkFailures.begin(),
                                 result.checkFailures.end() -
                                     static_cast<std::ptrdiff_t>(
                                         race_lines));
    }
    return run;
}

/** Schedule-tree node: one fanout>1 choice point. */
struct Node
{
    ChoicePoint::Kind kind = ChoicePoint::Kind::TbIssue;
    unsigned numOptions = 0;
    std::set<unsigned> backtrack; ///< branches that must run
    std::set<unsigned> done;      ///< branches already run
};

using NodeMap = std::map<std::vector<unsigned>, Node>;

/** Dense per-(kernel, tb) thread id for the clock vectors. */
using TbKey = std::pair<unsigned, unsigned>;

bool
conflict(const TbOp &a, const TbOp &b)
{
    return a.addr == b.addr && (a.write() || b.write()) &&
           (a.kernel != b.kernel || a.tbGlobal != b.tbGlobal);
}

/**
 * Fold one run's TB-issue step sequence through the clock-vector
 * DPOR analysis and add the resulting backtrack points to @p nodes.
 *
 * The happens-before model mirrors the race detector's: program
 * order per thread block, plus release->acquire edges through each
 * sync word in the order the operations issued. Conservative in two
 * ways — a sync edge is assumed whenever an acquire-side op follows
 * a release-side op on the same word (more HB means fewer backtrack
 * points from *stale* conflicts, but every adjacent conflicting pair
 * still gets its flip because adjacent pairs are never HB-ordered),
 * and a conflicting thread block absent from the candidate list
 * falls back to backtracking every branch.
 */
void
addDporBacktracks(const ScheduleRun &run, NodeMap &nodes)
{
    struct Step
    {
        TbOp op;
        std::size_t pointIndex; ///< into run.log.points
        std::size_t scriptPos;  ///< consumed prefix length at point
        unsigned tid = 0;
        std::vector<std::uint32_t> clock;
    };

    std::vector<Step> steps;
    std::size_t script_pos = 0;
    for (std::size_t p = 0; p < run.log.points.size(); ++p) {
        const ChoicePoint &point = run.log.points[p];
        if (point.kind == ChoicePoint::Kind::TbIssue) {
            steps.push_back({point.candidates[point.chosen], p,
                             script_pos, 0, {}});
        }
        if (point.consumedScript)
            ++script_pos;
    }

    std::map<TbKey, unsigned> tids;
    for (Step &step : steps) {
        TbKey key{step.op.kernel, step.op.tbGlobal};
        auto [it, fresh] =
            tids.emplace(key, static_cast<unsigned>(tids.size()));
        (void)fresh;
        step.tid = it->second;
    }
    std::size_t num_tids = tids.size();

    auto join = [](std::vector<std::uint32_t> &into,
                   const std::vector<std::uint32_t> &from) {
        for (std::size_t i = 0; i < from.size(); ++i)
            into[i] = std::max(into[i], from[i]);
    };

    std::vector<std::vector<std::uint32_t>> clocks(
        num_tids, std::vector<std::uint32_t>(num_tids, 0));
    std::unordered_map<Addr, std::vector<std::uint32_t>> last_release;

    for (Step &step : steps) {
        std::vector<std::uint32_t> &mine = clocks[step.tid];
        ++mine[step.tid];
        // The concurrency test below must see this thread's clock
        // *before* this op's own acquire-join: the direct
        // release->acquire edge into this op is exactly the
        // dependency DPOR exists to flip, so it must not count as
        // the ops already being ordered (Flanagan-Godefroid use
        // C(p), the clock of the process prior to its transition).
        step.clock = mine;
        if (step.op.kind == TbOpKind::AtomicLoad ||
            step.op.kind == TbOpKind::AtomicRmw) {
            auto it = last_release.find(step.op.addr);
            if (it != last_release.end())
                join(mine, it->second);
        }
        if (step.op.kind == TbOpKind::AtomicStore ||
            step.op.kind == TbOpKind::AtomicRmw) {
            last_release[step.op.addr] = mine;
        }
    }

    for (std::size_t j = 1; j < steps.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            const Step &earlier = steps[i];
            const Step &later = steps[j];
            if (!conflict(earlier.op, later.op))
                continue;
            // HB-ordered pairs commute with everything between them;
            // only concurrent conflicts need their order flipped.
            if (later.clock[earlier.tid] >= earlier.clock[earlier.tid])
                continue;

            const ChoicePoint &point =
                run.log.points[earlier.pointIndex];
            if (point.numOptions <= 1)
                continue; // the later TB was not ready: no choice

            std::vector<unsigned> key(
                run.consumed.begin(),
                run.consumed.begin() +
                    static_cast<std::ptrdiff_t>(earlier.scriptPos));
            Node &node = nodes[key];

            bool found = false;
            for (unsigned c = 0; c < point.candidates.size(); ++c) {
                const TbOp &cand = point.candidates[c];
                if (cand.kernel == later.op.kernel &&
                    cand.tbGlobal == later.op.tbGlobal) {
                    node.backtrack.insert(c);
                    found = true;
                    break;
                }
            }
            if (!found) {
                // The conflicting TB was not yet ready here; the
                // sound fallback is to try every branch.
                for (unsigned c = 0; c < point.numOptions; ++c)
                    node.backtrack.insert(c);
            }
        }
    }
}

/** Per-outcome accumulator (map keeps outcomes sorted). */
struct OutcomeAcc
{
    std::uint64_t count = 0;
    bool allowed = false;
};

void
addViolation(CellReport &cell, const std::string &what)
{
    ++cell.violationsTotal;
    if (cell.violations.size() < CellReport::kMaxViolations)
        cell.violations.push_back(what);
}

/** Fold one finished schedule into the tree and the cell verdict. */
void
mergeRun(CellReport &cell, NodeMap &nodes,
         std::map<std::string, OutcomeAcc> &outcomes, bool dpor,
         const std::vector<unsigned> &script, const ScheduleRun &run)
{
    std::string sched = "schedule " + scriptStr(script);

    if (run.diverged) {
        addViolation(cell, sched + ": replay diverged (forced "
                                   "choice out of range)");
        return;
    }

    cell.choicePoints += run.log.points.size();
    cell.maxDepth =
        std::max<std::uint64_t>(cell.maxDepth, run.consumed.size());

    // Register every fanout>1 point this run passed through.
    std::size_t script_pos = 0;
    for (const ChoicePoint &point : run.log.points) {
        if (!point.consumedScript)
            continue;
        std::vector<unsigned> key(
            run.consumed.begin(),
            run.consumed.begin() +
                static_cast<std::ptrdiff_t>(script_pos));
        ++script_pos;

        Node &node = nodes[key];
        node.kind = point.kind;
        node.numOptions = point.numOptions;
        node.done.insert(point.chosen);
        node.backtrack.insert(point.chosen);
        if (point.kind == ChoicePoint::Kind::Delivery || !dpor) {
            // Delivery points are delay-bounded and few: enumerate
            // them fully. --no-dpor does the same for TB issue.
            for (unsigned c = 0; c < point.numOptions; ++c)
                node.backtrack.insert(c);
        }
    }

    if (run.hung) {
        addViolation(cell, sched + ": hang (" + run.hangCode + ")");
        return;
    }

    if (dpor)
        addDporBacktracks(run, nodes);

    OutcomeAcc &acc = outcomes[run.outcome];
    ++acc.count;
    acc.allowed = run.outcomeAllowed;
    if (!run.outcomeAllowed) {
        addViolation(cell, sched + ": forbidden outcome '" +
                               run.outcome + "'");
    }

    if (run.raceFailures == 0)
        ++cell.cleanSchedules;
    else
        ++cell.racySchedules;

    if (cell.expectScopeRace) {
        if (run.raceFailures == 0) {
            addViolation(cell,
                         sched + ": expected a scope race but the "
                                 "run was race-free");
        } else if (!run.scopeOnly) {
            addViolation(cell,
                         sched + ": expected only scope races but "
                                 "found data race(s)");
        }
    } else if (run.raceFailures != 0) {
        addViolation(cell, sched + ": " +
                               std::to_string(run.raceFailures) +
                               " unexpected race(s)");
    }
    if (run.truncated) {
        addViolation(cell,
                     sched + ": race report truncated (more than " +
                         std::to_string(
                             analysis::RaceDetector::kMaxRecords) +
                         " races, the detector's record cap)");
    }

    for (const std::string &failure : run.otherFailures)
        addViolation(cell, sched + ": " + failure);
}

} // namespace

Explorer::Explorer(const ExploreBudget &budget, SweepRunner &runner)
    : _budget(budget), _runner(runner),
      _start(std::chrono::steady_clock::now())
{}

bool
Explorer::wallExpired() const
{
    if (_budget.maxWallSeconds <= 0.0)
        return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - _start;
    return elapsed.count() >= _budget.maxWallSeconds;
}

CellReport
Explorer::exploreCell(const std::string &program,
                      const ProtocolConfig &proto)
{
    CellReport cell;
    cell.program = program;
    cell.config = proto.shortName();

    auto probe = makeLitmus(program);
    if (!probe) {
        cell.verdict = "fail";
        addViolation(cell, "unknown litmus program '" + program +
                               "'");
        return cell;
    }
    cell.expectScopeRace = probe->expectScopeRace(proto);

    NodeMap nodes;
    std::map<std::string, OutcomeAcc> outcomes;
    std::set<std::vector<unsigned>> seen;
    std::vector<std::vector<unsigned>> batch;
    bool exhausted = false;

    batch.push_back({});
    seen.insert({});

    while (!batch.empty()) {
        if (wallExpired()) {
            exhausted = true;
            break;
        }

        std::vector<ScheduleRun> results = _runner.map(
            batch.size(), [&](std::size_t i) {
                return runSchedule(program, proto, _budget,
                                   batch[i]);
            });
        for (std::size_t i = 0; i < results.size(); ++i) {
            mergeRun(cell, nodes, outcomes, _budget.dpor, batch[i],
                     results[i]);
        }
        cell.schedulesExplored += results.size();

        // Next wave: every registered-but-unexplored backtrack.
        // NodeMap order is deterministic, so the wave composition —
        // and with it the whole report — is independent of --jobs.
        batch.clear();
        for (const auto &[key, node] : nodes) {
            for (unsigned c : node.backtrack) {
                if (node.done.count(c))
                    continue;
                std::vector<unsigned> script = key;
                script.push_back(c);
                if (!seen.insert(script).second)
                    continue;
                if (cell.schedulesExplored + batch.size() >=
                    _budget.maxSchedules) {
                    exhausted = true;
                    break;
                }
                batch.push_back(std::move(script));
            }
            if (exhausted)
                break;
        }
        if (exhausted)
            break;
    }

    for (const auto &[key, node] : nodes) {
        (void)key;
        std::uint64_t required = node.backtrack.size();
        for (unsigned c : node.backtrack)
            if (!node.done.count(c))
                ++cell.frontierRemaining;
        cell.schedulesPruned += node.numOptions - required;
    }

    for (const auto &[outcome, acc] : outcomes)
        cell.outcomes.push_back({outcome, acc.count, acc.allowed});

    if (cell.violationsTotal != 0)
        cell.verdict = "fail";
    else if (exhausted || cell.frontierRemaining != 0)
        cell.verdict = "budget-exhausted";
    else
        cell.verdict = "pass";
    return cell;
}

std::uint64_t
ExploreReport::countVerdict(const char *verdict) const
{
    std::uint64_t n = 0;
    for (const CellReport &cell : cells)
        if (cell.verdict == verdict)
            ++n;
    return n;
}

bool
ExploreReport::allPass() const
{
    return countVerdict("pass") == cells.size();
}

int
ExploreReport::exitCode() const
{
    if (countVerdict("fail") != 0)
        return 1;
    if (countVerdict("budget-exhausted") != 0)
        return 3;
    return 0;
}

void
writeExploreJson(const ExploreReport &report, std::ostream &os)
{
    JsonWriter json(os);
    json.beginObject();
    json.key("schema_version").value(std::uint64_t{1});
    json.key("harness").value("litmus_explore");

    json.key("budget").beginObject();
    json.key("max_schedules").value(report.budget.maxSchedules);
    json.key("max_cycles_per_schedule")
        .value(static_cast<std::uint64_t>(
            report.budget.maxCyclesPerSchedule));
    json.key("deliver_depth").value(report.budget.deliverDepth);
    json.key("dpor").value(report.budget.dpor);
    json.endObject();

    json.key("summary").beginObject();
    json.key("cells").value(
        static_cast<std::uint64_t>(report.cells.size()));
    json.key("passed").value(report.countVerdict("pass"));
    json.key("failed").value(report.countVerdict("fail"));
    json.key("budget_exhausted")
        .value(report.countVerdict("budget-exhausted"));
    std::uint64_t total = 0;
    for (const CellReport &cell : report.cells)
        total += cell.schedulesExplored;
    json.key("schedules_explored").value(total);
    json.key("all_pass").value(report.allPass());
    json.endObject();

    json.key("cells").beginArray();
    for (const CellReport &cell : report.cells) {
        json.beginObject();
        json.key("program").value(cell.program);
        json.key("config").value(cell.config);
        json.key("verdict").value(cell.verdict);
        json.key("expect_scope_race").value(cell.expectScopeRace);
        json.key("schedules_explored").value(cell.schedulesExplored);
        json.key("schedules_pruned").value(cell.schedulesPruned);
        json.key("frontier_remaining").value(cell.frontierRemaining);
        json.key("choice_points").value(cell.choicePoints);
        json.key("max_depth").value(cell.maxDepth);
        json.key("clean_schedules").value(cell.cleanSchedules);
        json.key("racy_schedules").value(cell.racySchedules);
        json.key("outcomes").beginArray();
        for (const OutcomeCount &outcome : cell.outcomes) {
            json.beginObject();
            json.key("outcome").value(outcome.outcome);
            json.key("count").value(outcome.count);
            json.key("allowed").value(outcome.allowed);
            json.endObject();
        }
        json.endArray();
        json.key("violations").beginArray();
        for (const std::string &violation : cell.violations)
            json.value(violation);
        json.endArray();
        json.key("violations_total").value(cell.violationsTotal);
        json.endObject();
    }
    json.endArray();

    json.endObject();
    os << "\n";
}

bool
writeExploreJsonFile(const ExploreReport &report,
                     const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::perror(path.c_str());
        return false;
    }
    writeExploreJson(report, os);
    return os.good();
}

void
renderExploreReport(const ExploreReport &report, std::ostream &os)
{
    os << std::left << std::setw(11) << "program" << std::setw(7)
       << "config" << std::setw(18) << "verdict" << std::right
       << std::setw(10) << "explored" << std::setw(9) << "pruned"
       << std::setw(10) << "frontier" << std::setw(10) << "outcomes"
       << "\n";
    for (const CellReport &cell : report.cells) {
        os << std::left << std::setw(11) << cell.program
           << std::setw(7) << cell.config << std::setw(18)
           << cell.verdict << std::right << std::setw(10)
           << cell.schedulesExplored << std::setw(9)
           << cell.schedulesPruned << std::setw(10)
           << cell.frontierRemaining << std::setw(10)
           << cell.outcomes.size() << "\n";
        for (const OutcomeCount &outcome : cell.outcomes) {
            os << "    " << (outcome.allowed ? "ok " : "BAD")
               << " x" << outcome.count << "  " << outcome.outcome
               << "\n";
        }
        for (const std::string &violation : cell.violations)
            os << "    VIOLATION: " << violation << "\n";
        if (cell.violationsTotal > cell.violations.size()) {
            os << "    ... and "
               << cell.violationsTotal - cell.violations.size()
               << " more violation(s)\n";
        }
    }
}

} // namespace explore
} // namespace nosync

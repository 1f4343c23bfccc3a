#include "axiom/checker.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "explore/explorer.hh"
#include "explore/litmus.hh"
#include "runner/json_writer.hh"

namespace nosync
{
namespace axiom
{
namespace
{

/** Publication reach of a write, ordered by inclusion. */
enum class Tier : std::uint8_t
{
    Cu = 0,      ///< own CU only (plain store / Local release)
    Device = 1,  ///< own device
    Machine = 2, ///< whole machine
};

/** Tier a release at @p annotated scope publishes at under @p model.
 *  On a single-device machine the Device tier folds into Machine,
 *  mirroring analysis::RaceDetector's reach rules. */
Tier
tierOf(const AxiomModel &model, Scope annotated)
{
    switch (effectiveScope(model, annotated)) {
      case Scope::Local:
        return Tier::Cu;
      case Scope::Device:
        return model.devices > 1 ? Tier::Device : Tier::Machine;
      case Scope::Global:
      default:
        return Tier::Machine;
    }
}

/** One executed operation of a candidate execution, in total order. */
struct Event
{
    unsigned thread = 0;
    const Op *op = nullptr;
    std::uint32_t value = 0; ///< value written (writes) / read (reads)
    Tier tier = Tier::Cu;    ///< writes: current publication tier
};

/** DFS node state; programs are a handful of ops, so copying the
 *  whole state per branch is cheaper than undo logs. */
struct ExecState
{
    std::vector<unsigned> pc; ///< per-thread next-op index
    std::vector<std::uint32_t> regs;
    std::vector<Event> trace;
    std::uint64_t rfPruned = 0;
};

constexpr unsigned kDone = std::numeric_limits<unsigned>::max();

/**
 * Index of thread @p t's next op that would execute: skips Delay ops
 * (pure phase barriers) and guard-false ops. Guards only reference
 * registers written program-order-earlier by the same thread, so
 * every skip decision is final by the time the scan reaches it.
 */
unsigned
nextExecutable(const Program &prog, const ExecState &state,
               unsigned t)
{
    const std::vector<Op> &ops = prog.threads[t].ops;
    for (unsigned i = state.pc[t]; i < ops.size(); ++i) {
        const Op &op = ops[i];
        if (op.kind == Op::Kind::Delay)
            continue;
        if (op.guardReg != kNoReg &&
            state.regs[op.guardReg] != op.guardValue)
            continue;
        return i;
    }
    return kDone;
}

/** Scope-visibility axiom: is write event @p w visible to a read by
 *  thread @p t? Own thread and own CU see everything immediately;
 *  beyond that only what a release published far enough. */
bool
visibleTo(const Program &prog, const Event &w, unsigned t)
{
    if (w.thread == t || prog.cuOf(w.thread) == prog.cuOf(t))
        return true;
    if (w.tier == Tier::Machine)
        return true;
    return w.tier == Tier::Device &&
           prog.deviceOf(w.thread) == prog.deviceOf(t);
}

/**
 * Resolve a read's rf edge: candidates are the visible writes of the
 * variable plus the initial value; the coherence/maximality axiom (no
 * visible write may sit co-between rf(r) and r) kills all but the
 * co-maximal candidate, which with a total `to` makes rf a function.
 * Killed candidates are counted in rfPruned for report honesty.
 */
std::uint32_t
resolveRead(const Program &prog, ExecState &state, unsigned t,
            unsigned var)
{
    const Event *max_visible = nullptr;
    std::uint64_t visible = 0;
    for (const Event &e : state.trace) {
        if (!e.op->isWrite() || e.op->var != var)
            continue;
        if (!visibleTo(prog, e, t))
            continue;
        ++visible;
        max_visible = &e;
    }
    // Initial value plus every non-maximal visible write is pruned.
    state.rfPruned += visible;
    return max_visible != nullptr ? max_visible->value : 0;
}

/** Execute op @p idx of thread @p t, appending to the trace. */
void
execute(const Program &prog, const AxiomModel &model,
        ExecState &state, unsigned t, unsigned idx)
{
    const Op &op = prog.threads[t].ops[idx];
    state.pc[t] = idx + 1;

    Event event;
    event.thread = t;
    event.op = &op;

    switch (op.kind) {
      case Op::Kind::Load:
      case Op::Kind::AtomicLoad:
        event.value = resolveRead(prog, state, t, op.var);
        if (op.dest != kNoReg)
            state.regs[op.dest] = event.value;
        break;
      case Op::Kind::Store:
        event.value = op.value;
        event.tier = Tier::Cu;
        break;
      case Op::Kind::AtomicStore:
        event.value = op.value;
        break;
      case Op::Kind::AtomicRmw: {
        std::uint32_t read = resolveRead(prog, state, t, op.var);
        if (op.dest != kNoReg)
            state.regs[op.dest] = read;
        event.value = read + op.value;
        break;
      }
      case Op::Kind::Delay:
        return; // never reaches the trace; nextExecutable skips it
    }

    if (op.isRelease()) {
        // Publication axiom: the release publishes itself and every
        // program-order-earlier write of its thread at its tier.
        Tier tier = tierOf(model, op.scope);
        event.tier = tier;
        for (Event &e : state.trace)
            if (e.thread == t && e.op->isWrite() && e.tier < tier)
                e.tier = tier;
    }
    state.trace.push_back(event);
}

using VectorClock = std::vector<std::uint64_t>;

void
join(VectorClock &into, const VectorClock &from)
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i] = std::max(into[i], from[i]);
}

/** Per-sync-word published clocks, one per publication tier, plus
 *  the as-if-all-sync-were-global DRF shadow (HRF models only). */
struct SyncVar
{
    std::map<unsigned, VectorClock> perCu;
    std::map<unsigned, VectorClock> perDevice;
    VectorClock global;
    VectorClock drf;
};

/** A recorded access for race pair checking. */
struct Access
{
    unsigned thread = 0;
    std::uint64_t timeReal = 0;
    std::uint64_t timeShadow = 0;
    bool isWrite = false;
    bool isSync = false;
};

const char *
accessName(const Op &op)
{
    switch (op.kind) {
      case Op::Kind::Load:
        return "load";
      case Op::Kind::Store:
        return "store";
      case Op::Kind::AtomicLoad:
        return "atomic-load";
      case Op::Kind::AtomicStore:
        return "atomic-store";
      case Op::Kind::AtomicRmw:
        return "atomic-rmw";
      case Op::Kind::Delay:
      default:
        return "delay";
    }
}

/** Racing pairs of one execution, by kind. */
struct RaceTally
{
    std::set<std::string> data;
    std::set<std::string> scope;
};

/**
 * Replay one candidate execution through the scoped FastTrack clock
 * axioms, mirroring analysis::RaceDetector: acquires join the word's
 * per-CU clock always and the per-device / global clocks per the
 * reach rules (reach_device = multi-device && scope != Local;
 * reach_global = scope == Global || (single-device && Device));
 * releases publish symmetrically. Under HRF a parallel shadow
 * machine treats every sync as global; a conflicting pair unordered
 * by the real clocks is a scope race when the shadow orders it, a
 * data race otherwise.
 */
RaceTally
analyzeRaces(const Program &prog, const AxiomModel &model,
             const std::vector<Event> &trace)
{
    unsigned n = static_cast<unsigned>(prog.threads.size());
    bool multi_device = model.devices > 1;
    bool hrf = model.scoped;

    std::vector<VectorClock> real(n, VectorClock(n, 0));
    std::vector<VectorClock> shadow(n, VectorClock(n, 0));
    for (unsigned t = 0; t < n; ++t)
        real[t][t] = shadow[t][t] = 1;

    std::map<unsigned, SyncVar> sync;
    std::map<unsigned, std::vector<Access>> accesses;
    RaceTally tally;

    for (const Event &event : trace) {
        unsigned t = event.thread;
        const Op &op = *event.op;
        unsigned cu = prog.cuOf(t);
        unsigned dev = prog.deviceOf(t);

        bool reach_device = false, reach_global = false;
        if (op.isSync()) {
            Scope es = effectiveScope(model, op.scope);
            reach_device = multi_device && es != Scope::Local;
            reach_global = es == Scope::Global ||
                           (!multi_device && es == Scope::Device);
        }

        if (op.isAcquire()) {
            SyncVar &var = sync[op.var];
            join(real[t], var.perCu[cu]);
            if (reach_device)
                join(real[t], var.perDevice[dev]);
            if (reach_global)
                join(real[t], var.global);
            if (hrf)
                join(shadow[t], var.drf);
        }

        for (const Access &prev : accesses[op.var]) {
            if (prev.thread == t)
                continue;
            if (!prev.isWrite && !op.isWrite())
                continue;
            if (prev.isSync && op.isSync())
                continue;
            bool ordered = real[t][prev.thread] >= prev.timeReal;
            if (ordered)
                continue;
            bool shadow_ordered =
                hrf && shadow[t][prev.thread] >= prev.timeShadow;
            std::ostringstream desc;
            desc << prog.varName(op.var) << ": t" << prev.thread
                 << " " << (prev.isWrite ? "write" : "read")
                 << " vs t" << t << " " << accessName(op);
            if (shadow_ordered)
                tally.scope.insert(desc.str());
            else
                tally.data.insert(desc.str());
        }
        accesses[op.var].push_back({t, real[t][t], shadow[t][t],
                                    op.isWrite(), op.isSync()});

        if (op.isRelease()) {
            SyncVar &var = sync[op.var];
            join(var.perCu[cu], real[t]);
            if (reach_device)
                join(var.perDevice[dev], real[t]);
            if (reach_global)
                join(var.global, real[t]);
            if (hrf)
                join(var.drf, shadow[t]);
        }
        real[t][t] += 1;
        shadow[t][t] += 1;
    }
    return tally;
}

/** Accumulator threaded through the DFS. */
struct Accumulator
{
    std::uint64_t interleavings = 0;
    std::uint64_t executions = 0;
    std::uint64_t rfPruned = 0;
    std::uint64_t racyExecutions = 0;
    std::uint64_t dataRacePairs = 0;
    std::uint64_t scopeRacePairs = 0;
    std::map<std::string, bool> outcomes; ///< outcome -> allowed
    std::set<std::string> races;
};

void
recordTerminal(const Program &prog, const AxiomModel &model,
               const ExecState &state, const OutcomeFormatter &format,
               const OutcomeOracle &allowed, Accumulator &acc)
{
    acc.interleavings += 1;
    acc.executions += 1;
    acc.rfPruned += state.rfPruned;

    std::string outcome = format(state.regs);
    auto it = acc.outcomes.find(outcome);
    if (it == acc.outcomes.end())
        acc.outcomes[outcome] = !allowed || allowed(outcome);

    RaceTally tally = analyzeRaces(prog, model, state.trace);
    if (!tally.data.empty() || !tally.scope.empty())
        acc.racyExecutions += 1;
    acc.dataRacePairs += tally.data.size();
    acc.scopeRacePairs += tally.scope.size();
    for (const std::string &desc : tally.data)
        acc.races.insert("data race on " + desc);
    for (const std::string &desc : tally.scope)
        acc.races.insert("scope race on " + desc);
}

/**
 * Enumerate admissible total orders: at each step any thread whose
 * next executable op is in the minimal pending phase may go. The
 * phase axiom models the litmus Delay as a barrier — every phase-p
 * op of any thread orders before every phase-(p+1) op — which is how
 * the mis-scoped consumer's dominating wait() appears statically.
 */
void
dfs(const Program &prog, const AxiomModel &model,
    const std::vector<std::vector<unsigned>> &phase, ExecState state,
    const OutcomeFormatter &format, const OutcomeOracle &allowed,
    Accumulator &acc)
{
    unsigned n = static_cast<unsigned>(prog.threads.size());
    std::vector<unsigned> next(n, kDone);
    unsigned min_phase = kDone;
    for (unsigned t = 0; t < n; ++t) {
        next[t] = nextExecutable(prog, state, t);
        if (next[t] != kDone)
            min_phase = std::min(min_phase, phase[t][next[t]]);
    }
    if (min_phase == kDone) {
        recordTerminal(prog, model, state, format, allowed, acc);
        return;
    }
    for (unsigned t = 0; t < n; ++t) {
        if (next[t] == kDone || phase[t][next[t]] != min_phase)
            continue;
        ExecState branch = state;
        execute(prog, model, branch, t, next[t]);
        dfs(prog, model, phase, std::move(branch), format, allowed,
            acc);
    }
}

} // namespace

AxiomCellReport
checkProgram(const Program &prog, const AxiomModel &model,
             const OutcomeFormatter &format,
             const OutcomeOracle &allowed)
{
    // Phase of an op = number of Delay barriers program-order-before
    // it in its thread.
    std::vector<std::vector<unsigned>> phase(prog.threads.size());
    for (std::size_t t = 0; t < prog.threads.size(); ++t) {
        unsigned p = 0;
        for (const Op &op : prog.threads[t].ops) {
            phase[t].push_back(p);
            if (op.kind == Op::Kind::Delay)
                ++p;
        }
    }

    ExecState state;
    state.pc.assign(prog.threads.size(), 0);
    state.regs.assign(prog.numRegs, 0);

    Accumulator acc;
    dfs(prog, model, phase, std::move(state), format, allowed, acc);

    AxiomCellReport report;
    report.program = prog.name;
    report.model = model.name;
    report.interleavings = acc.interleavings;
    report.executions = acc.executions;
    report.rfPruned = acc.rfPruned;
    report.racyExecutions = acc.racyExecutions;
    report.dataRacePairs = acc.dataRacePairs;
    report.scopeRacePairs = acc.scopeRacePairs;
    for (const auto &[outcome, ok] : acc.outcomes) {
        report.outcomes.push_back({outcome, ok});
        if (!ok)
            report.oracleOk = false;
    }
    report.races.assign(acc.races.begin(), acc.races.end());
    if (acc.dataRacePairs != 0)
        report.verdict = "data-race";
    else if (acc.scopeRacePairs != 0)
        report.verdict = "scope-race";
    else
        report.verdict = "race-free";
    return report;
}

AxiomCellReport
checkCell(const explore::LitmusWorkload &workload,
          const ProtocolConfig &proto)
{
    Program prog = workload.axiomProgram();
    AxiomModel model = modelFor(proto);
    AxiomCellReport report = checkProgram(
        prog, model,
        [&](const std::vector<std::uint32_t> &regs) {
            return workload.formatOutcome(regs);
        },
        [&](const std::string &outcome) {
            return workload.allowed(outcome, proto);
        });
    report.config = proto.shortName();
    return report;
}

CrossCheckResult
crossCheck(const AxiomCellReport &axiom,
           const explore::CellReport &cell)
{
    CrossCheckResult result;
    result.program = axiom.program;
    result.config = axiom.config;
    result.checked =
        axiom.program == cell.program && axiom.config == cell.config;
    if (!result.checked) {
        result.diffs.push_back(
            axiom.program + " on " + axiom.config +
            ": no matching operational cell (got " + cell.program +
            " on " + cell.config + ")");
        return result;
    }
    std::string where = axiom.program + " on " + axiom.config;

    if (cell.verdict != "pass") {
        result.diffs.push_back(
            where + ": operational verdict '" + cell.verdict +
            "' — outcome set not trustworthy for comparison");
    }

    std::set<std::string> axiomatic, operational;
    for (const AxiomOutcome &outcome : axiom.outcomes)
        axiomatic.insert(outcome.outcome);
    for (const explore::OutcomeCount &outcome : cell.outcomes)
        operational.insert(outcome.outcome);
    for (const std::string &outcome : operational) {
        if (!axiomatic.count(outcome))
            result.diffs.push_back(
                where + ": operational outcome '" + outcome +
                "' is not axiomatically allowed");
    }
    for (const std::string &outcome : axiomatic) {
        if (!operational.count(outcome))
            result.diffs.push_back(
                where + ": axiomatic outcome '" + outcome +
                "' was never observed operationally");
    }

    bool op_race_free = cell.racySchedules == 0;
    bool op_all_racy =
        cell.schedulesExplored != 0 && cell.cleanSchedules == 0;
    if (axiom.raceFree() != op_race_free) {
        std::ostringstream os;
        os << where << ": static verdict '" << axiom.verdict
           << "' but dynamic detector flagged " << cell.racySchedules
           << " of " << cell.schedulesExplored << " schedule(s)";
        result.diffs.push_back(os.str());
    }
    if (axiom.allRacy() != op_all_racy) {
        std::ostringstream os;
        os << where << ": static races on " << axiom.racyExecutions
           << " of " << axiom.executions
           << " execution(s) but dynamic detector left "
           << cell.cleanSchedules << " schedule(s) clean";
        result.diffs.push_back(os.str());
    }
    bool axiom_scope_race =
        axiom.verdict == "scope-race" && axiom.allRacy();
    if (axiom_scope_race != cell.expectScopeRace) {
        result.diffs.push_back(
            where + ": static verdict '" + axiom.verdict +
            "' disagrees with the program's scope-race expectation (" +
            (cell.expectScopeRace ? "expected" : "not expected") +
            ")");
    }
    if (!axiom.oracleOk) {
        result.diffs.push_back(
            where +
            ": an axiomatic outcome violates the litmus oracle");
    }

    result.ok = result.diffs.empty();
    return result;
}

std::uint64_t
AxiomReport::countVerdict(const char *verdict) const
{
    std::uint64_t n = 0;
    for (const AxiomCellReport &cell : cells)
        if (cell.verdict == verdict)
            ++n;
    return n;
}

bool
AxiomReport::allOk() const
{
    for (const AxiomCellReport &cell : cells)
        if (!cell.oracleOk)
            return false;
    for (const CrossCheckResult &check : crossChecks)
        if (!check.checked || !check.ok)
            return false;
    return true;
}

int
AxiomReport::exitCode() const
{
    return allOk() ? 0 : 1;
}

void
writeAxiomJson(const AxiomReport &report, std::ostream &os)
{
    JsonWriter json(os);
    json.beginObject();
    json.key("schema_version").value(std::uint64_t{1});
    json.key("harness").value("litmus_axiom");

    json.key("summary").beginObject();
    json.key("cells").value(
        static_cast<std::uint64_t>(report.cells.size()));
    json.key("race_free").value(report.countVerdict("race-free"));
    json.key("scope_race").value(report.countVerdict("scope-race"));
    json.key("data_race").value(report.countVerdict("data-race"));
    std::uint64_t checked = 0, check_failed = 0;
    for (const CrossCheckResult &check : report.crossChecks) {
        checked += check.checked ? 1 : 0;
        check_failed += check.ok ? 0 : 1;
    }
    json.key("cross_checked").value(checked);
    json.key("cross_check_failed").value(check_failed);
    json.key("all_ok").value(report.allOk());
    json.endObject();

    json.key("cells").beginArray();
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const AxiomCellReport &cell = report.cells[i];
        json.beginObject();
        json.key("program").value(cell.program);
        json.key("config").value(cell.config);
        json.key("model").value(cell.model);
        json.key("verdict").value(cell.verdict);
        json.key("oracle_ok").value(cell.oracleOk);
        json.key("interleavings").value(cell.interleavings);
        json.key("executions").value(cell.executions);
        json.key("rf_pruned").value(cell.rfPruned);
        json.key("racy_executions").value(cell.racyExecutions);
        json.key("data_race_pairs").value(cell.dataRacePairs);
        json.key("scope_race_pairs").value(cell.scopeRacePairs);
        json.key("outcomes").beginArray();
        for (const AxiomOutcome &outcome : cell.outcomes) {
            json.beginObject();
            json.key("outcome").value(outcome.outcome);
            json.key("allowed").value(outcome.allowed);
            json.endObject();
        }
        json.endArray();
        json.key("races").beginArray();
        for (const std::string &race : cell.races)
            json.value(race);
        json.endArray();
        json.key("cross_check").beginObject();
        if (i < report.crossChecks.size()) {
            const CrossCheckResult &check = report.crossChecks[i];
            json.key("checked").value(check.checked);
            json.key("ok").value(check.ok);
            json.key("diffs").beginArray();
            for (const std::string &diff : check.diffs)
                json.value(diff);
            json.endArray();
        } else {
            json.key("checked").value(false);
            json.key("ok").value(false);
            json.key("diffs").beginArray().endArray();
        }
        json.endObject();
        json.endObject();
    }
    json.endArray();

    json.endObject();
    os << "\n";
}

bool
writeAxiomJsonFile(const AxiomReport &report, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::perror(path.c_str());
        return false;
    }
    writeAxiomJson(report, os);
    return os.good();
}

void
renderAxiomReport(const AxiomReport &report, std::ostream &os)
{
    os << std::left << std::setw(11) << "program" << std::setw(7)
       << "config" << std::setw(15) << "model" << std::setw(12)
       << "verdict" << std::right << std::setw(11) << "execs"
       << std::setw(10) << "racy" << std::setw(10) << "outcomes"
       << "\n";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const AxiomCellReport &cell = report.cells[i];
        os << std::left << std::setw(11) << cell.program
           << std::setw(7) << cell.config << std::setw(15)
           << cell.model << std::setw(12) << cell.verdict
           << std::right << std::setw(11) << cell.executions
           << std::setw(10) << cell.racyExecutions << std::setw(10)
           << cell.outcomes.size() << "\n";
        for (const AxiomOutcome &outcome : cell.outcomes) {
            os << "    " << (outcome.allowed ? "ok " : "BAD") << " "
               << outcome.outcome << "\n";
        }
        for (const std::string &race : cell.races)
            os << "    RACE: " << race << "\n";
        if (i < report.crossChecks.size()) {
            for (const std::string &diff :
                 report.crossChecks[i].diffs)
                os << "    DIFF: " << diff << "\n";
        }
    }
}

} // namespace axiom
} // namespace nosync

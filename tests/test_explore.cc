/**
 * @file
 * Stateless-model-checker tests: the fault injector's perturbation
 * schedule is a pure function of its seed, a recorded decision log
 * replays to the identical run, replay divergence is detected rather
 * than silently absorbed, and the explorer reaches the canonical
 * litmus outcome sets with DPOR pruning agreeing with full
 * enumeration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "explore/decision_log.hh"
#include "explore/explorer.hh"
#include "explore/exploring_policy.hh"
#include "explore/exploring_scheduler.hh"
#include "explore/litmus.hh"
#include "noc/fault_injector.hh"

using namespace nosync;
using namespace nosync::explore;

namespace
{

/** One perturbation decision, comparable bitwise. */
struct Perturbation
{
    Tick arrival = 0;
    bool duplicated = false;
    Cycles dupDelay = 0;

    bool
    operator==(const Perturbation &other) const
    {
        return arrival == other.arrival &&
               duplicated == other.duplicated &&
               dupDelay == other.dupDelay;
    }
};

/**
 * Drive a FaultInjector through a fixed message pattern and record
 * every decision it makes. The pattern cycles (src, dst, nominal)
 * deterministically so any difference between two traces comes from
 * the injector's own Rng stream.
 */
std::vector<Perturbation>
perturbationSchedule(std::uint64_t seed, int messages)
{
    FaultInjector injector(seed);

    std::vector<Perturbation> trace;
    trace.reserve(static_cast<std::size_t>(messages));
    for (int i = 0; i < messages; ++i) {
        NodeId src = static_cast<NodeId>(i % 7);
        NodeId dst = static_cast<NodeId>((i * 3 + 1) % 5);
        Tick nominal = static_cast<Tick>(100 + 13 * i);
        Perturbation p;
        p.arrival = injector.adjust(src, dst, nominal);
        p.duplicated = injector.rollDuplicate();
        if (p.duplicated)
            p.dupDelay = injector.duplicateDelay();
        trace.push_back(p);
    }
    return trace;
}

/** Outcome + decision log of one scripted litmus schedule. */
struct Replay
{
    std::vector<unsigned> consumed;
    DecisionLog log;
    bool diverged = false;
    bool hung = false;
    std::string outcome;
};

Replay
runScripted(const std::string &program, const ProtocolConfig &proto,
            const std::vector<unsigned> &script)
{
    auto workload = makeLitmus(program);
    EXPECT_NE(workload, nullptr) << program;

    SystemConfig config;
    config.protocol = proto;
    config.checking.raceCheckEnabled = true;
    config.execution.maxCycles = 2000000;

    ChoiceScript choices(script);
    DecisionLog log;
    System system(config);
    ExploringScheduler sched(system.eventQueue(), choices, log);
    ExploringPolicy policy(choices, log, 1);
    policy.attach(&system.mesh());
    system.setTbScheduler(&sched);
    system.setDeliveryPolicy(&policy);

    RunResult result = system.run(*workload);

    Replay replay;
    replay.consumed = choices.consumed();
    replay.diverged = choices.diverged();
    replay.log = std::move(log);
    replay.hung = result.hang.has_value();
    if (!replay.hung)
        replay.outcome = workload->outcome(system);
    return replay;
}

std::vector<std::string>
outcomeSet(const CellReport &cell)
{
    std::vector<std::string> set;
    for (const OutcomeCount &entry : cell.outcomes)
        set.push_back(entry.outcome);
    return set;
}

CellReport
exploreOne(const std::string &program, const ProtocolConfig &proto,
        bool dpor)
{
    ExploreBudget budget;
    budget.maxSchedules = 512;
    budget.dpor = dpor;
    SweepRunner runner(1);
    Explorer explorer(budget, runner);
    return explorer.exploreCell(program, proto);
}

} // namespace

// Same seed, same message pattern: the perturbation schedule must be
// bitwise identical run to run — faulted runs replay exactly.
TEST(FaultInjectorDeterminism, SameSeedSameSchedule)
{
    auto a = perturbationSchedule(12345, 2000);
    auto b = perturbationSchedule(12345, 2000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "perturbation " << i
                                  << " differs for the same seed";
}

// A different seed must produce a different schedule (over 2000
// messages the chance of an identical stream is negligible), and the
// injector must actually be perturbing something.
TEST(FaultInjectorDeterminism, DifferentSeedDifferentSchedule)
{
    auto a = perturbationSchedule(12345, 2000);
    auto b = perturbationSchedule(54321, 2000);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    bool perturbed = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i]))
            differs = true;
        Tick nominal = static_cast<Tick>(100 + 13 * i);
        if (a[i].arrival != nominal || a[i].duplicated)
            perturbed = true;
    }
    EXPECT_TRUE(differs);
    EXPECT_TRUE(perturbed);
}

// The explorer's delays pass through the same-pair FIFO floor: a
// message the script delays past a competitor holds back every later
// message on its own (src, dst) pair, and the decision log records
// the clamped arrival.
TEST(ExploringPolicyFifo, ScriptedDelayKeepsSamePairOrder)
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh(eq, stats);
    ChoiceScript script({1});
    DecisionLog log;
    ExploringPolicy policy(script, log, 1);
    policy.attach(&mesh);
    mesh.setDeliveryPolicy(&policy);

    std::vector<int> order;
    auto arrive = [&order](int i) {
        return [&order, i] { order.push_back(i); };
    };
    // The competitor: the long route from the far corner to node 0.
    mesh.send(15, 0, 2, TrafficClass::Read, arrive(0));
    // One hop: the script delays it past the competitor.
    mesh.send(1, 0, 2, TrafficClass::Read, arrive(1));
    // Same pair, nominally due long before the delayed message.
    mesh.send(1, 0, 2, TrafficClass::Read, arrive(2));
    eq.run();

    EXPECT_EQ(script.consumed(), std::vector<unsigned>{1});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    ASSERT_EQ(log.points.size(), 3u);
    const ChoicePoint &delayed = log.points[1];
    const ChoicePoint &later = log.points[2];
    EXPECT_EQ(delayed.arrival, log.points[0].arrival + 1);
    EXPECT_LT(later.nominal, delayed.arrival);
    EXPECT_EQ(later.arrival, delayed.arrival);
}

// Record/replay round trip: re-running a schedule with its consumed
// choices forced must reproduce the identical decision log and
// outcome, for the default path and for a forced alternative.
TEST(DecisionLogReplay, RoundTripReproducesRun)
{
    for (const std::vector<unsigned> &script :
         {std::vector<unsigned>{}, std::vector<unsigned>{1}}) {
        Replay first = runScripted("mp", ProtocolConfig::gd(), script);
        ASSERT_FALSE(first.hung);
        ASSERT_FALSE(first.diverged);
        ASSERT_FALSE(first.log.points.empty());

        Replay second =
            runScripted("mp", ProtocolConfig::gd(), first.consumed);
        ASSERT_FALSE(second.hung);
        EXPECT_FALSE(second.diverged);
        EXPECT_EQ(first.consumed, second.consumed);
        EXPECT_TRUE(first.log == second.log)
            << "decision log diverged on replay";
        EXPECT_EQ(first.outcome, second.outcome);
    }
}

// The two mp schedule branches reach different outcomes — the
// scheduler's choice points are real, not cosmetic.
TEST(DecisionLogReplay, AlternateBranchChangesOutcome)
{
    Replay def = runScripted("mp", ProtocolConfig::gd(), {});
    Replay alt = runScripted("mp", ProtocolConfig::gd(), {1});
    ASSERT_FALSE(def.hung);
    ASSERT_FALSE(alt.hung);
    EXPECT_EQ(def.outcome, "f=1 d=41");
    EXPECT_EQ(alt.outcome, "f=0");
}

// A script index out of range marks the replay diverged; the driver
// treats that as a hard error instead of exploring a phantom tree.
TEST(DecisionLogReplay, OutOfRangeScriptDiverges)
{
    Replay replay = runScripted("mp", ProtocolConfig::gd(), {17});
    EXPECT_TRUE(replay.diverged);
}

// The explorer must drain mp's frontier and see both outcomes.
TEST(Explorer, MpReachesBothOutcomes)
{
    CellReport cell = exploreOne("mp", ProtocolConfig::gd(), true);
    EXPECT_EQ(cell.verdict, "pass");
    EXPECT_EQ(cell.frontierRemaining, 0u);
    EXPECT_EQ(cell.violationsTotal, 0u);
    EXPECT_EQ(outcomeSet(cell),
              (std::vector<std::string>{"f=0", "f=1 d=41"}));
}

// DPOR prunes only commuting branches: the outcome set must match
// full enumeration exactly while running fewer schedules.
TEST(Explorer, DporMatchesFullEnumeration)
{
    for (const char *program : {"mp", "sb", "lb"}) {
        CellReport pruned =
            exploreOne(program, ProtocolConfig::gd(), true);
        CellReport full =
            exploreOne(program, ProtocolConfig::gd(), false);
        EXPECT_EQ(pruned.verdict, "pass") << program;
        EXPECT_EQ(full.verdict, "pass") << program;
        EXPECT_EQ(outcomeSet(pruned), outcomeSet(full)) << program;
        EXPECT_LE(pruned.schedulesExplored, full.schedulesExplored)
            << program;
        EXPECT_GT(pruned.schedulesPruned, 0u) << program;
    }
}

// The mis-scoped program is the paper's motivating bug: every
// schedule must flag a scope race on the HRF configs and be clean on
// the DRF ones, where the scope annotation cannot weaken anything.
TEST(Explorer, MisscopedRaceExactlyOnHrfConfigs)
{
    CellReport gh = exploreOne("misscoped", ProtocolConfig::gh(), true);
    EXPECT_EQ(gh.verdict, "pass");
    EXPECT_TRUE(gh.expectScopeRace);
    EXPECT_EQ(gh.cleanSchedules, 0u);
    EXPECT_EQ(gh.racySchedules, gh.schedulesExplored);

    CellReport gd = exploreOne("misscoped", ProtocolConfig::gd(), true);
    EXPECT_EQ(gd.verdict, "pass");
    EXPECT_FALSE(gd.expectScopeRace);
    EXPECT_EQ(gd.racySchedules, 0u);
    EXPECT_EQ(gd.cleanSchedules, gd.schedulesExplored);
    EXPECT_EQ(outcomeSet(gd),
              (std::vector<std::string>{"f=1 d=41"}));
}

// The engine-side-sync column behaves exactly like the other DRF
// configs on the suite: same SC outcome sets, misscoped clean (a
// scope annotation cannot weaken unscoped sync), no races anywhere.
TEST(Explorer, DdSeSixthConfigOutcomeSets)
{
    const ProtocolConfig ddse = ProtocolConfig::ddse();

    CellReport mp = exploreOne("mp", ddse, true);
    EXPECT_EQ(mp.verdict, "pass");
    EXPECT_EQ(mp.racySchedules, 0u);
    EXPECT_EQ(outcomeSet(mp),
              (std::vector<std::string>{"f=0", "f=1 d=41"}));

    CellReport sb = exploreOne("sb", ddse, true);
    EXPECT_EQ(sb.verdict, "pass");
    EXPECT_EQ(outcomeSet(sb),
              (std::vector<std::string>{"r0=0 r1=1", "r0=1 r1=0",
                                        "r0=1 r1=1"}));

    CellReport lb = exploreOne("lb", ddse, true);
    EXPECT_EQ(lb.verdict, "pass");
    EXPECT_EQ(outcomeSet(lb),
              (std::vector<std::string>{"r0=0 r1=0", "r0=0 r1=1",
                                        "r0=1 r1=0"}));

    CellReport miss = exploreOne("misscoped", ddse, true);
    EXPECT_EQ(miss.verdict, "pass");
    EXPECT_FALSE(miss.expectScopeRace);
    EXPECT_EQ(miss.racySchedules, 0u);
    EXPECT_EQ(outcomeSet(miss),
              (std::vector<std::string>{"f=1 d=41"}));

    CellReport iriw = exploreOne("iriw", ddse, true);
    EXPECT_EQ(iriw.verdict, "pass");
    EXPECT_EQ(iriw.outcomes.size(), 15u);
    for (const OutcomeCount &outcome : iriw.outcomes)
        EXPECT_NE(outcome.outcome, "a=1 b=0 c=1 d=0");
}

// Device-scope message passing on the single-device litmus machine:
// Device folds into Global, so mp_dev is race-free with the mp
// outcome set on every config — including the scoped HRF ones.
TEST(Explorer, MpDevDeviceScopeFoldsOnSingleDevice)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::gh(),
          ProtocolConfig::dh(), ProtocolConfig::ddse()}) {
        CellReport cell = exploreOne("mp_dev", proto, true);
        EXPECT_EQ(cell.verdict, "pass") << proto.shortName();
        EXPECT_FALSE(cell.expectScopeRace) << proto.shortName();
        EXPECT_EQ(cell.racySchedules, 0u) << proto.shortName();
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"f=0", "f=1 d=41"}))
            << proto.shortName();
    }
}

// Budget exhaustion degrades to a coverage report with a non-empty
// frontier and the distinct verdict — never a silent pass.
TEST(Explorer, BudgetExhaustionIsLoud)
{
    ExploreBudget budget;
    budget.maxSchedules = 2;
    budget.dpor = false;
    SweepRunner runner(1);
    Explorer explorer(budget, runner);
    CellReport cell =
        explorer.exploreCell("sb", ProtocolConfig::gd());
    EXPECT_EQ(cell.verdict, "budget-exhausted");
    EXPECT_GT(cell.frontierRemaining, 0u);
    EXPECT_EQ(cell.violationsTotal, 0u);
}

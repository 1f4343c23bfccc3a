/**
 * @file
 * Axiomatic-checker tests: the static evaluator reproduces the
 * canonical litmus outcome sets and race verdicts per axiom set, the
 * publication axiom makes mis-scoped and cross-device releases
 * invisible exactly where the machine would hide them, and — the
 * closing of the loop — every litmus×config cell's axiomatic outcome
 * set and race verdict agrees with the DPOR explorer and the dynamic
 * race detector, with tampered operational reports caught by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "axiom/checker.hh"
#include "axiom/model.hh"
#include "axiom/program.hh"
#include "core/system.hh"
#include "explore/explorer.hh"
#include "explore/litmus.hh"

using namespace nosync;
using namespace nosync::axiom;

namespace
{

std::vector<std::string>
outcomeSet(const AxiomCellReport &cell)
{
    std::vector<std::string> set;
    for (const AxiomOutcome &outcome : cell.outcomes)
        set.push_back(outcome.outcome);
    return set;
}

AxiomCellReport
checkNamed(const std::string &program, const ProtocolConfig &proto)
{
    std::unique_ptr<explore::LitmusWorkload> workload =
        explore::makeLitmus(program);
    EXPECT_NE(workload, nullptr) << program;
    return checkCell(*workload, proto);
}

explore::CellReport
exploreOne(const std::string &program, const ProtocolConfig &proto)
{
    explore::ExploreBudget budget;
    budget.maxSchedules = 512;
    SweepRunner runner(1);
    explore::Explorer explorer(budget, runner);
    return explorer.exploreCell(program, proto);
}

/**
 * The suite's mis-scoped message-passing program over an explicit
 * machine geometry: producer on CU 0, consumer on CU 1, release at
 * @p release_scope, consumer delayed past the producer.
 */
Program
misscopedOn(const explore::LitmusWorkload &misscoped,
            Scope release_scope, unsigned cus_per_device,
            unsigned devices)
{
    Program prog = misscoped.axiomProgram();
    prog.cusPerDevice = cus_per_device;
    prog.devices = devices;
    prog.threads[0].ops[1].scope = release_scope;
    return prog;
}

OutcomeFormatter
formatterOf(const explore::LitmusWorkload &workload)
{
    return [&workload](const std::vector<std::uint32_t> &regs) {
        return workload.formatOutcome(regs);
    };
}

/** Two threads each fetch-add 1 to one counter, at global scope. */
Program
incIncProgram()
{
    Program prog;
    prog.name = "inc_inc";
    prog.numVars = 1;
    prog.numRegs = 2;
    prog.varNames = {"counter"};
    Thread t0, t1;
    t0.ops = {atomicRmw(0, 1, Scope::Global, 0)};
    t1.ops = {atomicRmw(0, 1, Scope::Global, 1)};
    prog.threads = {t0, t1};
    return prog;
}

} // namespace

// Each protocol column maps to its declarative axiom set.
TEST(AxiomModel, ModelPerConfig)
{
    EXPECT_EQ(modelFor(ProtocolConfig::gd()).name, "sc-drf");
    EXPECT_EQ(modelFor(ProtocolConfig::dd()).name, "sc-drf");
    EXPECT_EQ(modelFor(ProtocolConfig::ddro()).name, "sc-drf");
    EXPECT_EQ(modelFor(ProtocolConfig::ddse()).name, "sc-drf-engine");
    EXPECT_EQ(modelFor(ProtocolConfig::gh()).name, "hrf-scoped");
    EXPECT_EQ(modelFor(ProtocolConfig::dh()).name, "hrf-scoped");

    EXPECT_TRUE(modelFor(ProtocolConfig::gh()).scoped);
    EXPECT_FALSE(modelFor(ProtocolConfig::gd()).scoped);

    // DRF folds every annotation; HRF keeps them.
    AxiomModel drf = modelFor(ProtocolConfig::dd());
    AxiomModel hrf = modelFor(ProtocolConfig::dh());
    EXPECT_EQ(effectiveScope(drf, Scope::Local), Scope::Global);
    EXPECT_EQ(effectiveScope(hrf, Scope::Local), Scope::Local);
}

// Message passing: the acquire orders the guarded data read after the
// publication under every axiom set, so only the two canonical
// outcomes exist — and the guard makes exactly 3 admissible orders.
TEST(AxiomChecker, MpOutcomes)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::gh(),
          ProtocolConfig::ddse()}) {
        AxiomCellReport cell = checkNamed("mp", proto);
        EXPECT_EQ(cell.verdict, "race-free") << proto.shortName();
        EXPECT_TRUE(cell.oracleOk) << proto.shortName();
        EXPECT_EQ(cell.interleavings, 3u) << proto.shortName();
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"f=0", "f=1 d=41"}))
            << proto.shortName();
    }
}

// Store buffering under per-word-total-order axioms is SC: the
// both-read-zero outcome needs a cycle and must not appear.
TEST(AxiomChecker, SbExcludesNonScOutcome)
{
    AxiomCellReport cell = checkNamed("sb", ProtocolConfig::gd());
    EXPECT_EQ(cell.interleavings, 6u);
    EXPECT_EQ(outcomeSet(cell),
              (std::vector<std::string>{"r0=0 r1=1", "r0=1 r1=0",
                                        "r0=1 r1=1"}));
    EXPECT_TRUE(cell.oracleOk);
}

// Load buffering: both-read-one needs a causality cycle.
TEST(AxiomChecker, LbExcludesCausalityCycle)
{
    AxiomCellReport cell = checkNamed("lb", ProtocolConfig::dh());
    EXPECT_EQ(outcomeSet(cell),
              (std::vector<std::string>{"r0=0 r1=0", "r0=0 r1=1",
                                        "r0=1 r1=0"}));
    EXPECT_TRUE(cell.oracleOk);
}

// IRIW: the readers must agree on the write order.
TEST(AxiomChecker, IriwReadersAgreeOnWriteOrder)
{
    AxiomCellReport cell = checkNamed("iriw", ProtocolConfig::gd());
    EXPECT_TRUE(cell.oracleOk);
    EXPECT_EQ(cell.outcomes.size(), 15u);
    for (const AxiomOutcome &outcome : cell.outcomes)
        EXPECT_NE(outcome.outcome, "a=1 b=0 c=1 d=0");
}

// The mis-scoped program: the Delay phase barrier admits exactly one
// order; what varies across axiom sets is visibility. Under DRF the
// folded-global release publishes everything (clean, fresh values);
// under HRF the Local release publishes nothing beyond the CU — the
// consumer reads stale zeros and the pair is a scope race, because
// only the as-if-global shadow orders it.
TEST(AxiomChecker, MisscopedVerdictPerAxiomSet)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::dd(),
          ProtocolConfig::ddro(), ProtocolConfig::ddse()}) {
        AxiomCellReport cell = checkNamed("misscoped", proto);
        EXPECT_EQ(cell.verdict, "race-free") << proto.shortName();
        EXPECT_EQ(cell.interleavings, 1u) << proto.shortName();
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"f=1 d=41"}))
            << proto.shortName();
    }
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gh(), ProtocolConfig::dh()}) {
        AxiomCellReport cell = checkNamed("misscoped", proto);
        EXPECT_EQ(cell.verdict, "scope-race") << proto.shortName();
        EXPECT_TRUE(cell.allRacy()) << proto.shortName();
        EXPECT_TRUE(cell.scopeOnly()) << proto.shortName();
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"f=0 d=0"}))
            << proto.shortName();
        ASSERT_EQ(cell.races.size(), 1u) << proto.shortName();
        EXPECT_EQ(cell.races[0],
                  "scope race on data: t0 write vs t1 load");
    }
}

// Device scope on the litmus machine's single device folds into
// global: mp_dev is exactly as well-synchronized as mp.
TEST(AxiomChecker, DeviceScopeFoldsOnSingleDevice)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::gh(),
          ProtocolConfig::dh()}) {
        AxiomCellReport cell = checkNamed("mp_dev", proto);
        EXPECT_EQ(cell.verdict, "race-free") << proto.shortName();
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"f=0", "f=1 d=41"}))
            << proto.shortName();
    }
}

// The genuinely multi-device case, checked purely statically: with
// the consumer on another device, a Device-scope release publishes at
// the device tier only — under the scoped axioms the publication
// never crosses the link (stale zeros, scope race), while the
// unscoped DRF axioms make the same annotation machine-wide (clean).
TEST(AxiomChecker, DeviceScopeStopsAtTheLinkUnderHrf)
{
    std::unique_ptr<explore::LitmusWorkload> misscoped =
        explore::makeLitmus("misscoped");
    ASSERT_NE(misscoped, nullptr);
    Program prog = misscopedOn(*misscoped, Scope::Device, 1, 2);
    ASSERT_EQ(prog.threads[0].ops[1].kind, Op::Kind::AtomicStore);
    OutcomeFormatter format = formatterOf(*misscoped);

    AxiomModel hrf = modelFor(ProtocolConfig::gh(), 2);
    AxiomCellReport scoped = checkProgram(prog, hrf, format, nullptr);
    EXPECT_EQ(scoped.verdict, "scope-race");
    EXPECT_EQ(outcomeSet(scoped),
              (std::vector<std::string>{"f=0 d=0"}));

    AxiomModel drf = modelFor(ProtocolConfig::gd(), 2);
    AxiomCellReport unscoped = checkProgram(prog, drf, format, nullptr);
    EXPECT_EQ(unscoped.verdict, "race-free");
    EXPECT_EQ(outcomeSet(unscoped),
              (std::vector<std::string>{"f=1 d=41"}));

    // Same-device consumer: the device tier is enough even scoped.
    Program same_device = misscopedOn(*misscoped, Scope::Device, 2, 2);
    AxiomCellReport local =
        checkProgram(same_device, hrf, format, nullptr);
    EXPECT_EQ(local.verdict, "race-free");
    EXPECT_EQ(outcomeSet(local),
              (std::vector<std::string>{"f=1 d=41"}));
}

// Atomic RMWs serialize at the word's single order: two increments
// always sum, each observing the other or zero, never lost.
TEST(AxiomChecker, RmwIncrementsNeverLost)
{
    AxiomCellReport cell = checkProgram(
        incIncProgram(), modelFor(ProtocolConfig::gd()),
        [](const std::vector<std::uint32_t> &regs) {
            std::ostringstream os;
            os << "r0=" << regs[0] << " r1=" << regs[1];
            return os.str();
        },
        nullptr);
    EXPECT_EQ(cell.verdict, "race-free");
    EXPECT_EQ(outcomeSet(cell),
              (std::vector<std::string>{"r0=0 r1=1", "r0=1 r1=0"}));
}

// A program outside the suite runs on the simulator unchanged: the
// litmus interpreter's AtomicRmw path (which no suite program takes)
// performs each fetch-add and publishes its result register, and the
// operational outcome lands in the checker's set on every column.
TEST(LitmusInterpreter, RmwProgramRunsOnEveryColumn)
{
    explore::LitmusSpec spec;
    spec.program = incIncProgram();
    spec.regNames = {"r0", "r1"};
    spec.allowed = [](const std::string &outcome,
                      const ProtocolConfig &) {
        return outcome == "r0=0 r1=1" || outcome == "r0=1 r1=0";
    };
    explore::LitmusWorkload workload(spec);
    EXPECT_EQ(workload.name(), "inc_inc");

    for (const ProtocolConfig &proto : ProtocolConfig::all()) {
        AxiomCellReport cell = checkCell(workload, proto);
        EXPECT_EQ(outcomeSet(cell),
                  (std::vector<std::string>{"r0=0 r1=1", "r0=1 r1=0"}))
            << proto.shortName();

        SystemConfig config;
        config.protocol = proto;
        config.checking.raceCheckEnabled = true;
        System system(config);
        RunResult result = system.run(workload);
        ASSERT_FALSE(result.hang.has_value()) << proto.shortName();
        EXPECT_EQ(result.races.failureCount(), 0u)
            << proto.shortName();
        std::string outcome = workload.outcome(system);
        std::vector<std::string> set = outcomeSet(cell);
        EXPECT_NE(std::find(set.begin(), set.end(), outcome), set.end())
            << proto.shortName() << ": " << outcome;
        EXPECT_TRUE(workload.allowed(outcome, proto))
            << proto.shortName() << ": " << outcome;
    }
}

// THE closing of the loop: on every litmus×config cell the axiomatic
// outcome set equals the DPOR explorer's operational outcome set, and
// the static race verdict matches the dynamic detector's.
TEST(AxiomCrossCheck, AllCellsAgreeWithExplorerAndDetector)
{
    const std::vector<ProtocolConfig> configs = {
        ProtocolConfig::gd(),   ProtocolConfig::gh(),
        ProtocolConfig::dd(),   ProtocolConfig::ddro(),
        ProtocolConfig::dh(),   ProtocolConfig::ddse()};
    for (const std::string &program : explore::litmusSuite()) {
        for (const ProtocolConfig &proto : configs) {
            AxiomCellReport axiom_cell = checkNamed(program, proto);
            explore::CellReport explored = exploreOne(program, proto);
            ASSERT_EQ(explored.verdict, "pass")
                << program << " on " << proto.shortName();
            CrossCheckResult check =
                crossCheck(axiom_cell, explored);
            EXPECT_TRUE(check.checked);
            EXPECT_TRUE(check.ok)
                << program << " on " << proto.shortName() << ":\n  "
                << (check.diffs.empty() ? std::string("(no diffs)")
                                        : check.diffs[0]);
        }
    }
}

// Tampered operational results must be caught with a diff naming the
// program, config, and divergence — the checker is a tripwire, not a
// rubber stamp.
TEST(AxiomCrossCheck, TamperedCellsAreNamedInDiffs)
{
    AxiomCellReport axiom_cell =
        checkNamed("mp", ProtocolConfig::gd());
    explore::CellReport explored =
        exploreOne("mp", ProtocolConfig::gd());

    explore::CellReport phantom = explored;
    phantom.outcomes.push_back({"f=1 d=0", 1, false});
    CrossCheckResult check = crossCheck(axiom_cell, phantom);
    EXPECT_FALSE(check.ok);
    ASSERT_FALSE(check.diffs.empty());
    EXPECT_NE(check.diffs[0].find("mp on GD"), std::string::npos);
    EXPECT_NE(check.diffs[0].find("f=1 d=0"), std::string::npos);

    explore::CellReport racy = explored;
    racy.racySchedules = racy.schedulesExplored;
    racy.cleanSchedules = 0;
    check = crossCheck(axiom_cell, racy);
    EXPECT_FALSE(check.ok);

    explore::CellReport exhausted = explored;
    exhausted.verdict = "budget-exhausted";
    check = crossCheck(axiom_cell, exhausted);
    EXPECT_FALSE(check.ok);

    explore::CellReport other = explored;
    other.config = "GH";
    check = crossCheck(axiom_cell, other);
    EXPECT_FALSE(check.checked);
}

// The report emission carries the identity fields the validator and
// schema pin down (deep validation lives in tools/validate_axiom.py).
TEST(AxiomReportJson, CarriesSchemaIdentity)
{
    AxiomReport report;
    report.cells.push_back(checkNamed("mp", ProtocolConfig::gd()));
    std::ostringstream os;
    writeAxiomJson(report, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"harness\":\"litmus_axiom\""),
              std::string::npos);
    EXPECT_NE(json.find("\"model\":\"sc-drf\""), std::string::npos);
    EXPECT_EQ(report.exitCode(), 0);
}

/**
 * @file
 * Happens-before race detector tests: vector-clock unit tests driven
 * directly through the RaceDetector API, litmus-style racy/race-free
 * workload pairs run through the full System on every configuration,
 * and the bitwise-identity guarantee that race checking off changes
 * nothing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/race_detector.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::analysis;
using namespace nosync::test;

namespace
{

SyncOp
releaseOp(Addr addr, unsigned slot, Scope scope = Scope::Global)
{
    SyncOp op;
    op.func = AtomicFunc::Store;
    op.addr = addr;
    op.operand = 1;
    op.scope = scope;
    op.sem = SyncSemantics::Release;
    op.tb = slot;
    return op;
}

SyncOp
acquireOp(Addr addr, unsigned slot, Scope scope = Scope::Global)
{
    SyncOp op;
    op.func = AtomicFunc::Load;
    op.addr = addr;
    op.scope = scope;
    op.sem = SyncSemantics::Acquire;
    op.tb = slot;
    return op;
}

// ---------------------------------------------------------------------
// Unit tests: the clock engine, driven directly
// ---------------------------------------------------------------------

TEST(RaceDetectorUnit, MessagePassingWithFenceIsRaceFree)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod), 20);
    det.syncPerformed(acquireOp(0x200, cons), 30);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-mp", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
    EXPECT_GT(report.hbEdges, 0u);
    EXPECT_EQ(report.dataAccesses, 2u);
    EXPECT_EQ(report.syncPerforms, 2u);
}

TEST(RaceDetectorUnit, MessagePassingWithoutFenceRaces)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-mp-nofence", "GD");
    ASSERT_EQ(report.racesDetected, 1u);
    ASSERT_EQ(report.races.size(), 1u);
    const RaceRecord &race = report.races.front();
    EXPECT_EQ(race.kind, RaceKind::Data);
    EXPECT_EQ(race.addr, 0x100u);
    EXPECT_EQ(race.first.tb, 0u);
    EXPECT_EQ(race.first.kind, AccessKind::Store);
    EXPECT_EQ(race.second.tb, 1u);
    EXPECT_EQ(race.second.kind, AccessKind::Load);
    EXPECT_EQ(report.failureCount(), 1u);
}

TEST(RaceDetectorUnit, ReleaseOpensFreshEpoch)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.syncPerformed(releaseOp(0x200, prod), 10);
    det.syncPerformed(acquireOp(0x200, cons), 20);
    // Written only after the release: the acquire must not cover it.
    det.dataWrite(prod, 0x100, 30);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-epoch", "GD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, SyncSyncConflictsNeverRace)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);

    // Two TBs hammer one flag word with unordered atomics: that is
    // what synchronization is for, not a race.
    det.syncPerformed(releaseOp(0x200, a), 10);
    det.syncPerformed(releaseOp(0x200, b), 11);
    det.syncPerformed(acquireOp(0x200, a), 12);
    det.syncPerformed(acquireOp(0x200, b), 13);

    RaceReport report = det.finalize("unit-syncsync", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, MixedSyncDataConflictRaces)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);

    // One TB treats the word as a flag, the other as plain data.
    det.syncPerformed(releaseOp(0x200, a), 10);
    det.dataRead(b, 0x200, 20);

    RaceReport report = det.finalize("unit-mixed", "GD");
    ASSERT_EQ(report.racesDetected, 1u);
    EXPECT_TRUE(report.races.front().first.sync());
    EXPECT_FALSE(report.races.front().second.sync());
}

TEST(RaceDetectorUnit, LocalScopeEdgeOnlyReachesSameCu)
{
    // Under HRF, a local release on CU 0 orders a same-CU acquire but
    // not a cross-CU one; the cross-CU pair is a *scope* race since
    // the shadow all-global clocks do order it.
    RaceDetector det(ProtocolConfig::gh());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned same = det.tbStarted(0, 1, 0);
    unsigned cross = det.tbStarted(0, 2, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, same, Scope::Local), 30);
    det.dataRead(same, 0x100, 40);

    RaceReport clean = det.finalize("unit-local-samecu", "GH");
    EXPECT_EQ(clean.racesDetected, 0u);

    RaceDetector det2(ProtocolConfig::gh());
    prod = det2.tbStarted(0, 0, 0);
    cross = det2.tbStarted(0, 1, 1);
    det2.dataWrite(prod, 0x100, 10);
    det2.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det2.syncPerformed(acquireOp(0x200, cross, Scope::Global), 30);
    det2.dataRead(cross, 0x100, 40);

    RaceReport report = det2.finalize("unit-local-crosscu", "GH");
    ASSERT_EQ(report.racesDetected, 1u);
    EXPECT_EQ(report.races.front().kind, RaceKind::Scope);
}

TEST(RaceDetectorUnit, ScopeAnnotationsIgnoredUnderDrf)
{
    // The same mis-scoped stream is race-free under GD: DRF promotes
    // every sync to global scope (ProtocolConfig::effectiveScope).
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cross = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, cross, Scope::Global), 30);
    det.dataRead(cross, 0x100, 40);

    RaceReport report = det.finalize("unit-drf-scopes", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, HrfIndirectTransitivityThroughRelay)
{
    // data -> local release -> same-CU relay -> global release ->
    // cross-CU acquire: the HRF-Indirect chain orders the far read.
    RaceDetector det(ProtocolConfig::dh());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned relay = det.tbStarted(0, 1, 0);
    unsigned obs = det.tbStarted(0, 2, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, relay, Scope::Local), 30);
    det.syncPerformed(releaseOp(0x300, relay, Scope::Global), 40);
    det.syncPerformed(acquireOp(0x300, obs, Scope::Global), 50);
    det.dataRead(obs, 0x100, 60);

    RaceReport report = det.finalize("unit-transitive", "DH");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, KernelBoundaryOrdersAcrossKernels)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned k0 = det.tbStarted(0, 0, 0);
    det.dataWrite(k0, 0x100, 10);
    det.tbFinished(k0);

    unsigned k1 = det.tbStarted(1, 0, 1);
    det.dataRead(k1, 0x100, 1000);

    RaceReport report = det.finalize("unit-kernel", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, WriteWriteConflictRaces)
{
    RaceDetector det(ProtocolConfig::dd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataWrite(b, 0x100, 20);

    RaceReport report = det.finalize("unit-ww", "DD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, DuplicatePairsReportedOnce)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    for (Tick t = 20; t < 30; ++t)
        det.dataRead(b, 0x100, t);

    RaceReport report = det.finalize("unit-dedup", "GD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, SuppressionsExcludeRangesFromFailures)
{
    RaceDetector det(ProtocolConfig::gd());
    det.setSuppressions({{0x100, 8, "intentionally racy scratch"}});
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataRead(b, 0x100, 20);
    det.dataWrite(a, 0x180, 30);
    det.dataRead(b, 0x180, 40);

    RaceReport report = det.finalize("unit-suppress", "GD");
    EXPECT_EQ(report.racesDetected, 2u);
    EXPECT_EQ(report.racesSuppressed, 1u);
    EXPECT_EQ(report.failureCount(), 1u);
    EXPECT_TRUE(report.races.front().suppressed);
    EXPECT_EQ(report.races.front().suppressReason,
              "intentionally racy scratch");
    EXPECT_FALSE(report.races.back().suppressed);
}

TEST(RaceDetectorUnit, RecordsSortedByTickThenAddress)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x300, 10);
    det.dataWrite(a, 0x100, 11);
    det.dataWrite(a, 0x200, 12);
    det.dataRead(b, 0x300, 50);
    det.dataRead(b, 0x200, 50);
    det.dataRead(b, 0x100, 60);

    RaceReport report = det.finalize("unit-sort", "GD");
    ASSERT_EQ(report.races.size(), 3u);
    EXPECT_EQ(report.races[0].addr, 0x200u);
    EXPECT_EQ(report.races[1].addr, 0x300u);
    EXPECT_EQ(report.races[2].addr, 0x100u);
}

TEST(RaceDetectorUnit, JsonEmissionWrites)
{
    RaceDetector det(ProtocolConfig::gh());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataRead(b, 0x100, 20);
    RaceReport report = det.finalize("unit-json", "GH");

    std::string path = ::testing::TempDir() + "race_unit.json";
    ASSERT_TRUE(writeRaceJson(report, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    EXPECT_NE(text.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(text.find("\"unit-json\""), std::string::npos);
    EXPECT_NE(text.find("\"races_detected\":1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(RaceDetectorUnit, RacesPastTheCapAreCountedNotRecorded)
{
    // One racing pair per word, on more words than the cap holds.
    constexpr std::size_t kRacyWords = RaceDetector::kMaxRecords + 37;
    RaceDetector det(ProtocolConfig::dd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    for (std::size_t w = 0; w < kRacyWords; ++w) {
        Addr addr = 0x1000 + 4 * w;
        det.dataWrite(a, addr, 10 + w);
        det.dataRead(b, addr, 10000 + w);
    }

    RaceReport report = det.finalize("unit-cap", "DD");
    EXPECT_EQ(report.racesDetected, kRacyWords);
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ(report.races.size(), RaceDetector::kMaxRecords);
    EXPECT_EQ(report.recordsDropped,
              report.racesDetected - RaceDetector::kMaxRecords);

    std::string path = ::testing::TempDir() + "race_cap.json";
    ASSERT_TRUE(writeRaceJson(report, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    EXPECT_NE(text.find("\"races_detected\":" +
                        std::to_string(kRacyWords)),
              std::string::npos);
    EXPECT_NE(text.find("\"records_dropped\":" +
                        std::to_string(kRacyWords -
                                       RaceDetector::kMaxRecords)),
              std::string::npos);
    EXPECT_NE(text.find("\"truncated\":true"), std::string::npos);
    std::size_t records = 0;
    for (std::size_t at = text.find("\"addr\":"); at != std::string::npos;
         at = text.find("\"addr\":", at + 1))
        ++records;
    EXPECT_EQ(records, RaceDetector::kMaxRecords);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Litmus workloads run through the full System
// ---------------------------------------------------------------------

/**
 * Message passing with a configurable fence: TB0 (CU 0) writes data
 * and releases a flag at @p rel scope; TB1 (CU 1) waits long enough
 * for the release to have performed, acquires the flag at @p acq
 * scope, and reads the data. With the fence elided there is no HB
 * path at all; with a local-scope release and a cross-CU reader the
 * path exists only under the all-global shadow — a scope race.
 *
 * The consumer deliberately delays instead of spinning: a mis-scoped
 * flag is not guaranteed to ever become visible cross-CU, and the
 * detector's verdict must not depend on the racy value read.
 */
class MpLitmus : public Workload
{
  public:
    MpLitmus(bool fenced, Scope rel, Scope acq)
        : _fenced(fenced), _rel(rel), _acq(acq)
    {}

    std::string name() const override { return "litmus-race-mp"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            if (_fenced)
                co_await ctx.atomic(ctx.atomicStore(_flag, 1, _rel));
            co_return;
        }
        co_await ctx.wait(50000);
        if (_fenced)
            co_await ctx.atomic(ctx.atomicLoad(_flag, _acq));
        co_await ctx.load(_data);
    }

  private:
    bool _fenced;
    Scope _rel, _acq;
    Addr _data = 0, _flag = 0;
};

/** MpLitmus without the fence, with the race suppressed. */
class SuppressedMpLitmus : public MpLitmus
{
  public:
    SuppressedMpLitmus() : MpLitmus(false, Scope::Global, Scope::Global)
    {}

    void
    init(WorkloadEnv &env) override
    {
        _base = env.alloc(kLineBytes);
        MpLitmus::init(env);
    }

    std::vector<RaceSuppression>
    raceSuppressions() const override
    {
        // The racy word is the first one MpLitmus::init allocates,
        // one line above our marker allocation.
        return {{_base + kLineBytes, kLineBytes,
                 "deliberately racy litmus data"}};
    }

  private:
    Addr _base = 0;
};

RunResult
runRaceChecked(Workload &workload, const ProtocolConfig &proto)
{
    SystemConfig config;
    config.protocol = proto;
    config.checking.raceCheckEnabled = true;
    System system(config);
    return system.run(workload);
}

class RaceLitmusTest : public ::testing::TestWithParam<ProtocolConfig>
{
};

TEST_P(RaceLitmusTest, FencedMessagePassingIsRaceFree)
{
    MpLitmus workload(true, Scope::Global, Scope::Global);
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_TRUE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 0u);
    EXPECT_GT(result.races.hbEdges, 0u);
}

TEST_P(RaceLitmusTest, UnfencedMessagePassingRaces)
{
    MpLitmus workload(false, Scope::Global, Scope::Global);
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_FALSE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    ASSERT_EQ(result.races.racesDetected, 1u);
    EXPECT_EQ(result.races.races.front().kind, RaceKind::Data);
    EXPECT_EQ(result.races.races.front().second.kind,
              AccessKind::Load);
}

TEST_P(RaceLitmusTest, SuppressedRaceDoesNotFailTheRun)
{
    SuppressedMpLitmus workload;
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_TRUE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 1u);
    EXPECT_EQ(result.races.racesSuppressed, 1u);
    EXPECT_EQ(result.races.failureCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, RaceLitmusTest,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         test::ConfigName{});

TEST(RaceScopeLitmus, MisScopedReleaseFlaggedUnderHrf)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gh(), ProtocolConfig::dh()}) {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result = runRaceChecked(workload, proto);
        EXPECT_FALSE(result.ok()) << proto.shortName();
        ASSERT_EQ(result.races.racesDetected, 1u)
            << proto.shortName();
        EXPECT_EQ(result.races.races.front().kind, RaceKind::Scope)
            << proto.shortName();
    }
}

TEST(RaceScopeLitmus, MisScopedReleaseCleanUnderDrf)
{
    // The identical workload is DRF-correct when scopes are ignored:
    // GD/DD/DD+RO promote the local release to global.
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::dd(),
          ProtocolConfig::ddro()}) {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result = runRaceChecked(workload, proto);
        EXPECT_TRUE(result.ok()) << proto.shortName();
        EXPECT_EQ(result.races.racesDetected, 0u)
            << proto.shortName();
    }
}

// ---------------------------------------------------------------------
// Bitwise identity and determinism
// ---------------------------------------------------------------------

TEST(RaceCheckIdentity, DisabledDetectorChangesNothing)
{
    for (const ProtocolConfig &proto : ProtocolConfig::all()) {
        auto reference = makeScaled("FAM_G", 10);
        SystemConfig config;
        config.protocol = proto;
        System base_system(config);
        RunResult base = base_system.run(*reference);

        auto checked_wl = makeScaled("FAM_G", 10);
        config.checking.raceCheckEnabled = true;
        System checked_system(config);
        RunResult checked = checked_system.run(*checked_wl);

        EXPECT_TRUE(checked.ok()) << proto.shortName();
        EXPECT_EQ(base.cycles, checked.cycles) << proto.shortName();
        EXPECT_EQ(base.energyTotal, checked.energyTotal)
            << proto.shortName();
        EXPECT_EQ(base.trafficTotal, checked.trafficTotal)
            << proto.shortName();
        EXPECT_EQ(base.energy, checked.energy) << proto.shortName();
        EXPECT_EQ(base.traffic, checked.traffic) << proto.shortName();
    }
}

TEST(RaceCheckIdentity, ReportsAreDeterministic)
{
    // Two fresh Systems over the same racy workload must render the
    // same report — the property that makes --race-check --jobs=N
    // reports identical to serial runs.
    auto render = [] {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result =
            runRaceChecked(workload, ProtocolConfig::gh());
        return renderRaceReport(result.races);
    };
    std::string first = render();
    std::string second = render();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

} // namespace

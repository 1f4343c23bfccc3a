/**
 * @file
 * Tests of the protocol-independent L1 shell (L1Controller): store
 * buffer overflow and the stall queue on every protocol column, the
 * snapshot gauges that hang reports print, taken from both L1
 * families in the middle of an overflow drain, and the fences a sync
 * access implies under each consistency model.
 */

#include <gtest/gtest.h>

#include "coherence/denovo_l1.hh"
#include "test_util.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

constexpr Addr kData = 0x10000;
constexpr std::size_t kSbEntries = 4;
/** Three store buffers' worth: the stall queue outlives one drain. */
constexpr unsigned kStores = 12;

SystemConfig
smallSbConfig(const ProtocolConfig &protocol)
{
    SystemConfig config;
    config.protocol = protocol;
    config.geometry.storeBufferEntries = kSbEntries;
    return config;
}

/** Issue kStores back-to-back stores on CU 0 without stepping. */
void
issueStores(System &sys, WordAccesses &words, unsigned &done)
{
    for (unsigned i = 0; i < kStores; ++i) {
        words.store(sys.l1(0), kData + i * kWordBytes, i + 1,
                    [&done] { ++done; });
    }
}

class L1Shell : public ::testing::TestWithParam<ProtocolConfig>
{};

} // namespace

// More stores stall than the store buffer holds: every overflow drain
// must accept what fits and start another drain for the rest, so all
// callbacks fire and every value reaches the coherence point.
TEST_P(L1Shell, StallQueueLongerThanStoreBuffer)
{
    System sys(smallSbConfig(GetParam()));
    unsigned done = 0;
    WordAccesses words;
    issueStores(sys, words, done);
    drainEvents(sys);
    EXPECT_EQ(done, kStores);

    doDrain(sys, 0);
    for (unsigned i = 0; i < kStores; ++i)
        EXPECT_EQ(sys.debugRead(kData + i * kWordBytes), i + 1);
    drainEvents(sys);
    EXPECT_TRUE(sys.l1(0).checkInvariants(true).empty());
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, L1Shell,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         ConfigName{});

namespace
{

using Gauges = std::vector<std::pair<std::string, std::size_t>>;

/**
 * Snapshot CU 0 right after kStores back-to-back stores: the fifth
 * store started an overflow drain of the first four, and the other
 * eight wait in the stall queue. Then let everything finish and
 * require a clean quiesce.
 */
ControllerSnapshot
snapshotMidOverflowDrain(const ProtocolConfig &protocol)
{
    System sys(smallSbConfig(protocol));
    unsigned done = 0;
    WordAccesses words;
    issueStores(sys, words, done);
    ControllerSnapshot snap = sys.l1(0).snapshot();

    drainEvents(sys);
    EXPECT_EQ(done, kStores);
    doDrain(sys, 0);
    drainEvents(sys);
    EXPECT_EQ(sys.l1(0).checkInvariants(true),
              std::vector<std::string>{});
    return snap;
}

} // namespace

TEST(L1ShellSnapshot, GpuGaugesMidOverflowDrain)
{
    ControllerSnapshot snap =
        snapshotMidOverflowDrain(ProtocolConfig::gd());
    EXPECT_EQ(snap.name, "l1.0");
    EXPECT_EQ(snap.gauges, (Gauges{{"mshr", 0},
                                   {"sb", 0},
                                   {"wt_acks", 1},
                                   {"wt_words", 4},
                                   {"stalled_stores", 8},
                                   {"drain_waiters", 1}}));
    EXPECT_EQ(snap.detail, std::vector<std::string>{});
}

TEST(L1ShellSnapshot, DenovoGaugesMidOverflowDrain)
{
    ControllerSnapshot snap =
        snapshotMidOverflowDrain(ProtocolConfig::dd());
    EXPECT_EQ(snap.name, "l1.0");
    EXPECT_EQ(snap.gauges, (Gauges{{"mshr", 1},
                                   {"sb", 0},
                                   {"pending_writes", 4},
                                   {"wb_lines", 0},
                                   {"stalled_stores", 8},
                                   {"drain_waiters", 1}}));
    EXPECT_EQ(snap.detail,
              std::vector<std::string>{
                  "line 0x10000 readPend=0x0 dataReg=0xf syncReg=0x0 "
                  "syncRun=0x0 waitWb=0x0 targets=0 syncQ=0 "
                  "remoteQ=0"});
}

namespace
{

/** What the L1 shell did around one sync access. */
struct Fences
{
    double releaseDrains;
    double acquireInvalidations;
};

SystemConfig
configFor(const ProtocolConfig &protocol)
{
    SystemConfig config;
    config.protocol = protocol;
    return config;
}

/**
 * Issue one sync access of @p scope and @p sem on CU 0 of the fresh
 * System @p sys and count the fences its L1 applied.
 */
Fences
fencesOfOneSync(System &sys, Scope scope, SyncSemantics sem)
{
    AtomicFunc func = sem == SyncSemantics::Acquire
                          ? AtomicFunc::Load
                          : AtomicFunc::FetchAdd;
    doSync(sys, 0, makeSync(func, kData, 1, 0, scope, sem));
    const stats::StatSet &stats = sys.stats();
    return {stats.find("l1.0.release_drains")->value(),
            stats.find("l1.0.acquire_invalidations")->value()};
}

} // namespace

// DRF ignores the local annotation: the acq_rel sync drains before it
// performs and self-invalidates after.
TEST(FencePolicy, GpuDrfGlobalSyncDrainsAndInvalidates)
{
    System sys(configFor(ProtocolConfig::gd()));
    Fences f = fencesOfOneSync(sys, Scope::Local,
                               SyncSemantics::AcquireRelease);
    EXPECT_EQ(f.releaseDrains, 1.0);
    EXPECT_EQ(f.acquireInvalidations, 1.0);
}

// HRF honours it: a local acq_rel sync applies neither fence.
TEST(FencePolicy, HrfLocalSyncSkipsFences)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gh(), ProtocolConfig::dh()}) {
        SCOPED_TRACE(proto.shortName());
        System sys(configFor(proto));
        Fences f = fencesOfOneSync(sys, Scope::Local,
                                   SyncSemantics::AcquireRelease);
        EXPECT_EQ(f.releaseDrains, 0.0);
        EXPECT_EQ(f.acquireInvalidations, 0.0);
    }
}

// A global pure acquire on DeNovo only self-invalidates, and it
// performs at the L1, which now owns the sync word.
TEST(FencePolicy, DenovoExecutesLocally)
{
    System sys(configFor(ProtocolConfig::dd()));
    Fences f = fencesOfOneSync(sys, Scope::Global,
                               SyncSemantics::Acquire);
    EXPECT_EQ(f.releaseDrains, 0.0);
    EXPECT_EQ(f.acquireInvalidations, 1.0);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
}

/**
 * @file
 * Tests of the protocol-independent L1 shell (L1Controller): store
 * buffer overflow and the stall queue on every protocol column, the
 * snapshot gauges that hang reports print, taken from both L1
 * families in the middle of an overflow drain, the fences a sync
 * access implies under each consistency model, and reads of words
 * sent home before the bank acks them.
 */

#include <gtest/gtest.h>

#include "coherence/denovo_l1.hh"
#include "coherence/gpu_l1.hh"
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
                                   {"unacked_words", 4},
                                   {"stalled_stores", 8},
                                   {"drain_waiters", 1}}));
    EXPECT_EQ(snap.detail, std::vector<std::string>{
                               "unacked line 0x10000 words=0xf"});
}

TEST(L1ShellSnapshot, DenovoGaugesMidOverflowDrain)
{
    ControllerSnapshot snap =
        snapshotMidOverflowDrain(ProtocolConfig::dd());
    EXPECT_EQ(snap.name, "l1.0");
    EXPECT_EQ(snap.gauges, (Gauges{{"mshr", 1},
                                   {"sb", 0},
                                   {"pending_writes", 4},
                                   {"unacked_words", 0},
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

namespace
{

/** A word whose home bank (l2b14) is 5 hops from CU 0 and shares a
 *  node with CU 14. */
constexpr Addr kHomeFar = 0x10000 + 14 * kLineBytes;
/** A line in the same set of a 4-set L1. */
constexpr Addr kConflict = kHomeFar + 4 * kLineBytes;

/** A 4-set, one-way L1 and long hops: acks stay in flight a while. */
SystemConfig
oneWayL1Config(const ProtocolConfig &protocol)
{
    SystemConfig config;
    config.protocol = protocol;
    config.geometry.l1Bytes = 4 * kLineBytes;
    config.geometry.l1Assoc = 1;
    config.topology.mesh.hopLatency = 50;
    return config;
}

std::size_t
unackedWords(const L1Controller &l1)
{
    for (const auto &[name, value] : l1.snapshot().gauges) {
        if (name == "unacked_words")
            return value;
    }
    ADD_FAILURE() << "no unacked_words gauge";
    return 0;
}

/**
 * GH: CU 0 writes kHomeFar through twice (a release, then an
 * eviction) while a fill of its line is on the way, and a local
 * atomic on it waits for that fill. The fill left the bank before
 * either writethrough merged, so it must not install the word: the
 * atomic refetches and performs on the second writethrough's value.
 */
std::uint32_t
localAtomicOnWordWrittenThrough(System &sys)
{
    L1Controller &l1 = sys.l1(0);
    WordAccesses words;
    words.store(l1, kHomeFar, 64);
    words.load(l1, kHomeFar + kWordBytes);
    l1.drainWrites(Scope::Global, [] {});
    words.store(l1, kHomeFar, 65);
    words.store(l1, kConflict, 1);
    EXPECT_FALSE(as<GpuL1Cache>(l1)->wordValid(kHomeFar));
    EXPECT_EQ(unackedWords(l1), 1u);

    std::uint32_t old_val = 0;
    bool done = false;
    l1.sync(makeSync(AtomicFunc::FetchAdd, kHomeFar, 1, 0, Scope::Local),
            [&](std::uint32_t v) {
                old_val = v;
                done = true;
            });
    while (!done && sys.eventQueue().step()) {
    }
    EXPECT_TRUE(done);
    doDrain(sys, 0);
    EXPECT_EQ(sys.debugRead(kHomeFar), 66u);
    return old_val;
}

/** DD: CU 0 owns kHomeFar and evicts it; @return once the writeback
 *  is on its way home. */
void
evictOwnedWord(System &sys)
{
    doStore(sys, 0, kHomeFar, 65);
    doDrain(sys, 0);
    ASSERT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kHomeFar));
    WordAccesses words;
    words.load(sys.l1(0), kConflict);
    while (as<DenovoL1Cache>(sys.l1(0))->ownsWord(kHomeFar) &&
           sys.eventQueue().step()) {
    }
    EXPECT_EQ(unackedWords(sys.l1(0)), 1u);
}

/** DD: CU 0 loads the word it is writing back, a hit on the
 *  writeback's value. */
std::uint32_t
loadOfWordWrittenBack(System &sys)
{
    evictOwnedWord(sys);
    const stats::StatSet &stats = sys.stats();
    double hits = stats.find("l1.0.load_hits")->value();
    double misses = stats.find("l1.0.load_misses")->value();
    std::uint32_t value = doLoad(sys, 0, kHomeFar);
    EXPECT_EQ(stats.find("l1.0.load_hits")->value(), hits + 1);
    EXPECT_EQ(stats.find("l1.0.load_misses")->value(), misses);
    EXPECT_EQ(unackedWords(sys.l1(0)), 1u);
    return value;
}

/** DD: CU 14, next to the home bank, reads the word before CU 0's
 *  writeback reaches it; the registry forwards the read to CU 0,
 *  which answers from the writeback. */
std::uint32_t
readForwardOfWordWrittenBack(System &sys)
{
    evictOwnedWord(sys);
    std::uint32_t value = doLoad(sys, 14, kHomeFar);
    EXPECT_EQ(sys.stats().find("l1.0.remote_reads_served")->value(),
              1.0);
    return value;
}

struct UnackedRead
{
    const char *name;
    ProtocolConfig protocol;
    /** Send the word home and read it before the ack; @return the
     *  value read (65 when the read saw the write in flight). */
    std::uint32_t (*read)(System &sys);
};

void
PrintTo(const UnackedRead &read, std::ostream *os)
{
    *os << read.name;
}

class WordSentHome : public ::testing::TestWithParam<UnackedRead>
{};

} // namespace

// A word the L1 sent home stays readable until the bank acks it: the
// table keeps it (and the newest value) across every in-flight write.
TEST_P(WordSentHome, ReadBeforeAckSeesTheWrite)
{
    System sys(oneWayL1Config(GetParam().protocol));
    EXPECT_EQ(GetParam().read(sys), 65u);
    drainEvents(sys);
    EXPECT_EQ(unackedWords(sys.l1(0)), 0u);
    EXPECT_EQ(sys.l1(0).checkInvariants(true),
              std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    Readers, WordSentHome,
    ::testing::Values(
        UnackedRead{"GH_LocalAtomic", ProtocolConfig::gh(),
                    localAtomicOnWordWrittenThrough},
        UnackedRead{"DD_Load", ProtocolConfig::dd(),
                    loadOfWordWrittenBack},
        UnackedRead{"DD_ReadForward", ProtocolConfig::dd(),
                    readForwardOfWordWrittenBack}),
    [](const auto &info) { return std::string(info.param.name); });

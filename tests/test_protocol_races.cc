/**
 * @file
 * Regression tests for protocol race windows.
 *
 * Each of these scenarios was a real bug found during development by
 * the property-based tests; they are pinned here as small,
 * deterministic reproducers:
 *  - a fill installing the registry's stale copy over a value still
 *    buffered locally (SB / pending registration / pending WT),
 *  - a store to a freshly registered word leaving an older SB entry
 *    shadowing the frame,
 *  - re-registration racing an in-flight writeback at the registry,
 *  - eviction writebacks still in flight when results are inspected,
 *  - the DeNovoSync0 batch rule (queued remote transfers must not
 *    starve, and must not be served before already-queued locals).
 */

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

constexpr Addr kLine = 0x30000;
constexpr Addr kOther = 0x30004; // second word, same line
constexpr Addr kLock = 0x40000;

SystemConfig
dd()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::dd();
    return config;
}

SystemConfig
gd()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::gd();
    return config;
}

} // namespace

TEST(ProtocolRaces, FillMustNotShadowBufferedStoreDenovo)
{
    System sys(dd());
    sys.writeInit(kLine, 111); // stale value at the L2

    // Buffer a store, then force a fill of the same line via a load
    // of a different word while the store is still in the SB.
    bool stored = false;
    WordAccesses words;
    words.store(sys.l1(0), kLine, 222, [&] { stored = true; });
    std::uint32_t other = doLoad(sys, 0, kOther);
    EXPECT_EQ(other, 0u);
    while (!stored && sys.eventQueue().step()) {
    }
    // The fill of the line must not have resurrected the stale 111.
    EXPECT_EQ(doLoad(sys, 0, kLine), 222u);
}

TEST(ProtocolRaces, FillMustNotShadowBufferedStoreGpu)
{
    System sys(gd());
    sys.writeInit(kLine, 111);
    bool stored = false;
    WordAccesses words;
    words.store(sys.l1(0), kLine, 222, [&] { stored = true; });
    doLoad(sys, 0, kOther);
    while (!stored && sys.eventQueue().step()) {
    }
    EXPECT_EQ(doLoad(sys, 0, kLine), 222u);
}

TEST(ProtocolRaces, DrainedStoreStaysVisibleUntilRegistered)
{
    System sys(dd());
    // Store, start the drain, and read back at every step until the
    // registration completes: the value must never flicker.
    bool stored = false;
    WordAccesses words;
    words.store(sys.l1(0), kLine, 77, [&] { stored = true; });
    while (!stored && sys.eventQueue().step()) {
    }
    bool drained = false;
    sys.l1(0).drainWrites(Scope::Global, [&] { drained = true; });
    while (!drained) {
        std::uint32_t v = 0;
        ASSERT_TRUE(as<DenovoL1Cache>(sys.l1(0))->peekWord(kLine, v));
        ASSERT_EQ(v, 77u);
        if (!sys.eventQueue().step())
            break;
    }
    EXPECT_TRUE(drained);
    EXPECT_EQ(doLoad(sys, 0, kLine), 77u);
}

TEST(ProtocolRaces, DrainedStoreStaysVisibleGpu)
{
    System sys(gd());
    bool stored = false;
    WordAccesses words;
    words.store(sys.l1(0), kLine, 88, [&] { stored = true; });
    while (!stored && sys.eventQueue().step()) {
    }
    bool drained = false;
    sys.l1(0).drainWrites(Scope::Global, [&] { drained = true; });
    // Read mid-drain (writethrough in flight): must still see 88.
    EXPECT_EQ(doLoad(sys, 0, kLine), 88u);
    while (!drained && sys.eventQueue().step()) {
    }
    EXPECT_TRUE(drained);
    EXPECT_EQ(doLoad(sys, 0, kLine), 88u);
}

TEST(ProtocolRaces, StoreToFreshlyRegisteredWordClearsSbShadow)
{
    System sys(dd());
    // Gen 1: buffer a store and drain it (word becomes registered).
    doStore(sys, 0, kLine, 1);
    // Gen 2: buffer another store before draining...
    doStore(sys, 0, kLine, 2);
    doDrain(sys, 0);
    // ...then store again: the word is now registered, so this store
    // completes in the L1. An older SB entry must not shadow it.
    doStore(sys, 0, kLine, 3);
    EXPECT_EQ(doLoad(sys, 0, kLine), 3u);
    doDrain(sys, 0);
    EXPECT_EQ(sys.debugRead(kLine), 3u);
}

TEST(ProtocolRaces, EvictionThenRewriteKeepsLatestValue)
{
    // Repeated write -> evict -> rewrite cycles of the same word:
    // the stale-writeback filter and the wb-ack-ordered registration
    // must always leave the newest value visible.
    SystemConfig config = dd();
    config.geometry.l1Bytes = 256; // tiny L1: constant eviction
    config.geometry.l1Assoc = 2;
    System sys(config);

    for (std::uint32_t gen = 1; gen <= 8; ++gen) {
        doStore(sys, 0, kLine, gen * 10);
        doDrain(sys, 0);
        // March conflicting lines through the set to evict.
        for (unsigned i = 1; i <= 4; ++i)
            doLoad(sys, 0, kLine + i * 0x100);
        drainEvents(sys);
        ASSERT_EQ(sys.debugRead(kLine), gen * 10)
            << "generation " << gen;
    }
}

TEST(ProtocolRaces, QuiesceLandsInFlightWritebacks)
{
    // After a run completes, eviction writebacks triggered by the
    // final drain must have landed before results are read.
    SystemConfig config = dd();
    config.geometry.l1Bytes = 256;
    config.geometry.l1Assoc = 2;
    System sys(config);
    for (unsigned i = 0; i < 10; ++i)
        doStore(sys, 0, kLine + i * 0x100, 1000 + i);
    doDrain(sys, 0);
    drainEvents(sys);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(sys.debugRead(kLine + i * 0x100), 1000 + i);
}

TEST(ProtocolRaces, RemoteTransferDoesNotStarveUnderLocalSpinning)
{
    // DeNovoSync0 batch rule: CU 0 spins on the lock while CU 1 needs
    // one atomic on the same word. CU 1's transfer must be served
    // after the locals queued at grant time - not starved forever.
    System sys(dd());

    // CU 0 acquires ownership and keeps spinning (exchange of 1 into
    // a word that stays 1: every attempt "fails").
    sys.writeInit(kLock, 1);
    unsigned cu0_spins = 0;
    std::function<void()> spin = [&] {
        if (cu0_spins >= 2000)
            return; // bounded for the test
        ++cu0_spins;
        sys.l1(0).sync(makeSync(AtomicFunc::Exchange, kLock, 1),
                       [&](std::uint32_t) { spin(); });
    };
    spin();
    // Let CU 0 get going.
    for (int i = 0; i < 200; ++i)
        sys.eventQueue().step();

    bool cu1_done = false;
    sys.l1(1).sync(makeSync(AtomicFunc::Store, kLock, 0, 0,
                            Scope::Global, SyncSemantics::Release),
                   [&](std::uint32_t) { cu1_done = true; });
    Tick start = sys.eventQueue().now();
    while (!cu1_done && sys.eventQueue().step()) {
        ASSERT_LT(sys.eventQueue().now(), start + 200000)
            << "remote sync starved by local spinning";
    }
    EXPECT_TRUE(cu1_done);
}

TEST(ProtocolRaces, ReadForwardServedFromWritebackBuffer)
{
    // CU 0 owns a word, evicts it (writeback in flight), and CU 1's
    // read is forwarded to CU 0 by the registry before the writeback
    // arrives: CU 0 must serve it from the writeback buffer.
    SystemConfig config = dd();
    config.geometry.l1Bytes = 256;
    config.geometry.l1Assoc = 2;
    System sys(config);

    doStore(sys, 0, kLine, 909);
    doDrain(sys, 0);
    ASSERT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kLine));
    // Trigger the eviction but do NOT wait for the writeback to
    // land; immediately read from CU 1.
    bool evicted = false;
    WordAccesses words;
    words.load(sys.l1(0), kLine + 0x100);
    words.load(sys.l1(0), kLine + 0x200);
    words.load(sys.l1(0), kLine + 0x300);
    words.load(sys.l1(0), kLine + 0x400,
               [&](std::uint32_t) { evicted = true; });
    while (!evicted && sys.eventQueue().step()) {
    }
    EXPECT_EQ(doLoad(sys, 1, kLine), 909u);
}

TEST(ProtocolRaces, RegistrationWaitsForWritebackAck)
{
    // Evict a registered word and immediately rewrite it: the
    // re-registration must order after the writeback at the
    // registry, or the stale writeback would clobber the new value.
    SystemConfig config = dd();
    config.geometry.l1Bytes = 256;
    config.geometry.l1Assoc = 2;
    System sys(config);
    WordAccesses words;

    for (std::uint32_t round = 0; round < 6; ++round) {
        doStore(sys, 0, kLine, 100 + round);
        doDrain(sys, 0);
        // Evict (writeback leaves), then without waiting store the
        // next value and drain again.
        words.load(sys.l1(0), kLine + 0x100);
        words.load(sys.l1(0), kLine + 0x200);
        words.load(sys.l1(0), kLine + 0x300);
        words.load(sys.l1(0), kLine + 0x400);
        doStore(sys, 0, kLine, 200 + round);
        doDrain(sys, 0);
        drainEvents(sys);
        ASSERT_EQ(sys.debugRead(kLine), 200 + round)
            << "round " << round;
    }
}

TEST(ProtocolRaces, EpochPreciseFillServing)
{
    // A fill requested before an acquire may satisfy loads issued
    // before that acquire, but loads issued after must refetch.
    System sys(dd());
    sys.writeInit(kLine, 1);

    // Issue a load (fill in flight)...
    std::uint32_t first = 0xdead;
    WordAccesses words;
    words.load(sys.l1(0), kLine, [&](std::uint32_t v) { first = v; });
    // ...meanwhile CU 1 updates the word and releases...
    doStore(sys, 1, kLine + 0x1000, 0); // unrelated warmup
    // ...and CU 0 performs an acquire before the fill lands.
    bool acq = false;
    sys.l1(0).sync(makeSync(AtomicFunc::Load, kLock, 0, 0,
                            Scope::Global, SyncSemantics::Acquire),
                   [&](std::uint32_t) { acq = true; });
    while (!acq && sys.eventQueue().step()) {
    }
    // A post-acquire load must complete (no starvation) and see a
    // value at least as new as the pre-acquire one.
    std::uint32_t second = doLoad(sys, 0, kLine);
    drainEvents(sys);
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(second, 1u);
}

TEST(ProtocolRaces, PartialLineDrainPiecesMerge)
{
    // Two drains registering different words of one line: both
    // grants must land without clobbering each other.
    System sys(dd());
    doStore(sys, 0, kLine, 5);
    doDrain(sys, 0);
    doStore(sys, 0, kOther, 6);
    doDrain(sys, 0);
    EXPECT_EQ(sys.debugRead(kLine), 5u);
    EXPECT_EQ(sys.debugRead(kOther), 6u);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kLine));
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kOther));
}

TEST(ProtocolRaces, ConcurrentDrainAndRemoteReadKeepsCoherence)
{
    System sys(dd());
    // CU 0 buffers several stores across lines; CU 1 reads them
    // concurrently with the drain. Every read must return either 0
    // (old) or the stored value - never garbage.
    for (unsigned i = 0; i < 8; ++i)
        doStore(sys, 0, kLine + i * kLineBytes, 40 + i);
    bool drained = false;
    sys.l1(0).drainWrites(Scope::Global, [&] { drained = true; });
    std::vector<std::uint32_t> got(8, 0xdead);
    unsigned done = 0;
    WordAccesses words;
    for (unsigned i = 0; i < 8; ++i) {
        words.load(sys.l1(1), kLine + i * kLineBytes,
                   [&, i](std::uint32_t v) {
                       got[i] = v;
                       ++done;
                   });
    }
    while ((!drained || done < 8) && sys.eventQueue().step()) {
    }
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(got[i] == 0 || got[i] == 40 + i) << got[i];
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(sys.debugRead(kLine + i * kLineBytes), 40 + i);
}

/**
 * @file
 * Protocol-level tests for DeNovo coherence: registration, ownership
 * transfers, remote-L1 reads, the DeNovoSync0 distributed queue,
 * selective invalidation, writeback races, and registry recall.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

SystemConfig
ddConfig()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::dd();
    return config;
}

SystemConfig
ddroConfig()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::ddro();
    return config;
}

SystemConfig
dhConfig()
{
    SystemConfig config;
    config.protocol = ProtocolConfig::dh();
    return config;
}

constexpr Addr kData = 0x10000;
constexpr Addr kLock = 0x20000;

unsigned
bankOf(Addr addr)
{
    return (lineAlign(addr) / kLineBytes) % 16;
}

} // namespace

TEST(DenovoProtocol, LoadMissReturnsMemoryValue)
{
    System sys(ddConfig());
    sys.writeInit(kData, 4321);
    EXPECT_EQ(doLoad(sys, 0, kData), 4321u);
}

TEST(DenovoProtocol, DrainRegistersWrittenWords)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 5);
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    doDrain(sys, 0);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(as<DenovoL2Bank>(sys.l2Bank(bankOf(kData)))->ownerOf(kData), 0);
}

TEST(DenovoProtocol, RegisteredStoreSkipsStoreBuffer)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 5);
    doDrain(sys, 0);
    double buffered = sys.stats().find("l1.0.store_buffered")->value();
    doStore(sys, 0, kData, 6);
    // The second store completed in the L1 without a buffer slot.
    EXPECT_EQ(sys.stats().find("l1.0.store_buffered")->value(), buffered);
    EXPECT_GE(sys.stats().find("l1.0.store_hits")->value(), 1.0);
    EXPECT_EQ(doLoad(sys, 0, kData), 6u);
}

TEST(DenovoProtocol, RemoteL1ReadForwarded)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 88);
    doDrain(sys, 0);
    // CU 1's read is forwarded to CU 0, which keeps ownership.
    EXPECT_EQ(doLoad(sys, 1, kData), 88u);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(1))->ownsWord(kData));
    EXPECT_GE(sys.stats().find("l1.0.remote_reads_served")->value(), 1.0);
}

TEST(DenovoProtocol, OwnershipMovesWithRemoteWrite)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 1);
    doDrain(sys, 0);
    doStore(sys, 1, kData, 2);
    doDrain(sys, 1);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(1))->ownsWord(kData));
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(sys.debugRead(kData), 2u);
    EXPECT_GE(sys.stats().find("l1.0.ownership_transfers")->value(), 1.0);
}

TEST(DenovoProtocol, SyncRegistersAndHitsLocally)
{
    System sys(ddConfig());
    EXPECT_EQ(doSync(sys, 0, makeSync(AtomicFunc::FetchAdd, kLock, 1)),
              0u);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kLock));
    double hits_before = sys.stats().find("l1.0.sync_hits")->value();
    EXPECT_EQ(doSync(sys, 0, makeSync(AtomicFunc::FetchAdd, kLock, 1)),
              1u);
    EXPECT_GT(sys.stats().find("l1.0.sync_hits")->value(), hits_before);
}

TEST(DenovoProtocol, SyncOwnershipChainsAcrossCus)
{
    System sys(ddConfig());
    for (std::uint32_t i = 0; i < 30; ++i) {
        std::uint32_t old_val = doSync(
            sys, i % 15, makeSync(AtomicFunc::FetchAdd, kLock, 1));
        EXPECT_EQ(old_val, i);
    }
    EXPECT_EQ(sys.debugRead(kLock), 30u);
}

TEST(DenovoProtocol, AcquireKeepsRegisteredInvalidatesValid)
{
    System sys(ddConfig());
    sys.writeInit(kData + 4, 9);
    doStore(sys, 0, kData, 1); // word 0: will be registered
    doDrain(sys, 0);
    doLoad(sys, 0, kData + 4); // word 1: Valid only
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData),
              WordState::Registered);
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData + 4),
              WordState::Valid);

    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData),
              WordState::Registered);
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData + 4),
              WordState::Invalid);
}

TEST(DenovoProtocol, ReadOnlyRegionSurvivesAcquire)
{
    System sys(ddroConfig());
    sys.declareReadOnly(kData, kLineBytes);
    sys.writeInit(kData, 17);
    doLoad(sys, 0, kData);
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData), WordState::Valid);
    double misses = sys.stats().find("l1.0.load_misses")->value();
    EXPECT_EQ(doLoad(sys, 0, kData), 17u);
    EXPECT_EQ(sys.stats().find("l1.0.load_misses")->value(), misses);
}

TEST(DenovoProtocol, PlainDdRefetchesReadOnlyAfterAcquire)
{
    System sys(ddConfig());
    sys.declareReadOnly(kData, kLineBytes); // ignored without +RO
    sys.writeInit(kData, 17);
    doLoad(sys, 0, kData);
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    double misses = sys.stats().find("l1.0.load_misses")->value();
    EXPECT_EQ(doLoad(sys, 0, kData), 17u);
    EXPECT_GT(sys.stats().find("l1.0.load_misses")->value(), misses);
}

TEST(DenovoProtocol, MessagePassingBetweenCus)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 777);
    doSync(sys, 0,
           makeSync(AtomicFunc::Store, kLock, 1, 0, Scope::Global,
                    SyncSemantics::Release));
    std::uint32_t flag = doSync(
        sys, 1, makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                         SyncSemantics::Acquire));
    EXPECT_EQ(flag, 1u);
    EXPECT_EQ(doLoad(sys, 1, kData), 777u);
}

TEST(DenovoProtocol, WrittenDataReusedAcrossAcquires)
{
    System sys(ddConfig());
    doStore(sys, 0, kData, 5);
    doDrain(sys, 0);
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    double misses = sys.stats().find("l1.0.load_misses")->value();
    // Registered data survives the acquire: no miss.
    EXPECT_EQ(doLoad(sys, 0, kData), 5u);
    EXPECT_EQ(sys.stats().find("l1.0.load_misses")->value(), misses);
}

TEST(DenovoProtocol, EvictionWritesRegisteredWordsBack)
{
    SystemConfig config = ddConfig();
    config.geometry.l1Bytes = 256; // 2 sets x 2 ways
    config.geometry.l1Assoc = 2;
    System sys(config);
    doStore(sys, 0, kData, 64);
    doDrain(sys, 0);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    // March conflicting lines through the set.
    for (unsigned i = 1; i <= 8; ++i)
        doLoad(sys, 0, kData + i * 0x100);
    drainEvents(sys);
    // Ownership returned to the registry with the data.
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(sys.debugRead(kData), 64u);
    // A remote reader sees the value from the L2.
    EXPECT_EQ(doLoad(sys, 1, kData), 64u);
}

namespace
{

/**
 * Own kData in CU 0's 2-way L1, then march conflicting lines through
 * its set until the line is evicted: its writeback is then in flight,
 * not yet acknowledged by the registry.
 */
void
evictOwnedLine(System &sys, WordAccesses &words)
{
    doStore(sys, 0, kData, 64);
    doDrain(sys, 0);
    ASSERT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    words.load(sys.l1(0), kData + 0x100);
    words.load(sys.l1(0), kData + 0x200);
    while (as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData) &&
           sys.eventQueue().step()) {
    }
    ASSERT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
}

/** Whether CU 0's MSHR holds kData's word 0 behind its writeback. */
bool
heldBehindWriteback(System &sys)
{
    for (const std::string &line : sys.l1(0).snapshot().detail) {
        if (line.find("line 0x10000 ") == 0 &&
            line.find(" waitWb=0x1 ") != std::string::npos)
            return true;
    }
    return false;
}

SystemConfig
smallL1DdConfig()
{
    SystemConfig config = ddConfig();
    config.geometry.l1Bytes = 256; // 2 sets x 2 ways
    config.geometry.l1Assoc = 2;
    return config;
}

} // namespace

TEST(DenovoProtocol, SyncRegistrationWaitsForWriteback)
{
    System sys(smallL1DdConfig());
    WordAccesses words;
    evictOwnedLine(sys, words);
    // A sync miss on the word being written back registers only once
    // the writeback is acknowledged, then performs on its value.
    std::uint32_t old_val = 0;
    bool done = false;
    sys.l1(0).sync(makeSync(AtomicFunc::FetchAdd, kData, 1),
                   [&](std::uint32_t v) {
                       old_val = v;
                       done = true;
                   });
    EXPECT_TRUE(heldBehindWriteback(sys));
    drainEvents(sys);
    ASSERT_TRUE(done);
    EXPECT_EQ(old_val, 64u);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(sys.debugRead(kData), 65u);
}

TEST(DenovoProtocol, DrainRegistrationWaitsForWriteback)
{
    System sys(smallL1DdConfig());
    WordAccesses words;
    evictOwnedLine(sys, words);
    // A drained store to the word being written back registers only
    // once the writeback is acknowledged, so its value wins.
    bool stored = false;
    bool drained = false;
    words.store(sys.l1(0), kData, 77, [&] { stored = true; });
    sys.l1(0).drainWrites(Scope::Global, [&] { drained = true; });
    EXPECT_TRUE(heldBehindWriteback(sys));
    drainEvents(sys);
    EXPECT_TRUE(stored);
    ASSERT_TRUE(drained);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(sys.debugRead(kData), 77u);
    EXPECT_EQ(doLoad(sys, 1, kData), 77u);
}

TEST(DenovoProtocol, RegistryRecallOnL2Eviction)
{
    SystemConfig config = ddConfig();
    config.geometry.l2BankBytes = 1024; // 1 set x 16 ways per bank
    config.geometry.l2Assoc = 16;
    System sys(config);

    // Register one word in each of 16 lines mapping to bank 0 (every
    // 16th line with 16 banks), then touch a 17th to force a recall.
    Addr base = 0x40000;
    Addr stride = 16 * kLineBytes; // same bank, consecutive sets/ways
    for (unsigned i = 0; i < 16; ++i) {
        doStore(sys, i % 4, base + i * stride, 100 + i);
        doDrain(sys, i % 4);
    }
    EXPECT_EQ(doLoad(sys, 5, base + 16 * stride), 0u);
    drainEvents(sys);
    EXPECT_GE(sys.stats().find("l2b0.recalls")->value(), 1.0);
    // Every registered value survives whatever was recalled.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(sys.debugRead(base + i * stride), 100 + i);
}

TEST(DenovoProtocol, DhLocalSyncDelaysOwnership)
{
    System sys(dhConfig());
    std::uint32_t old_val = doSync(
        sys, 0, makeSync(AtomicFunc::FetchAdd, kLock, 1, 0,
                         Scope::Local));
    EXPECT_EQ(old_val, 0u);
    // Lazily owned: not registered yet.
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kLock));
    EXPECT_EQ(as<DenovoL2Bank>(sys.l2Bank(bankOf(kLock)))->ownerOf(kLock), kNoNode);
    // A second local sync sees the first (same L1).
    EXPECT_EQ(doSync(sys, 0,
                     makeSync(AtomicFunc::FetchAdd, kLock, 1, 0,
                              Scope::Local)),
              1u);
    // A global release registers the lazily-owned word.
    doDrain(sys, 0);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kLock));
    EXPECT_EQ(sys.debugRead(kLock), 2u);
}

TEST(DenovoProtocol, DhLocalReleaseSkipsDrain)
{
    System sys(dhConfig());
    doStore(sys, 0, kData, 9);
    bool done = false;
    sys.l1(0).drainWrites(Scope::Local, [&] { done = true; });
    while (!done && sys.eventQueue().step()) {
    }
    ASSERT_TRUE(done);
    // Still unregistered: local releases delay obtaining ownership.
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
}

TEST(DenovoProtocol, ConcurrentAtomicsFromAllCusSumCorrectly)
{
    System sys(ddConfig());
    // Fire 15 concurrent fetch-adds (one per CU) without waiting in
    // between: exercises the distributed registration queue.
    unsigned done = 0;
    for (unsigned cu = 0; cu < 15; ++cu) {
        sys.l1(cu).sync(makeSync(AtomicFunc::FetchAdd, kLock, 1),
                        [&](std::uint32_t) { ++done; });
    }
    while (done < 15 && sys.eventQueue().step()) {
    }
    EXPECT_EQ(done, 15u);
    EXPECT_EQ(sys.debugRead(kLock), 15u);
}

TEST(DenovoProtocol, ConcurrentMixedReadersAndWriter)
{
    System sys(ddConfig());
    sys.writeInit(kData, 5);
    // CU 0 owns the word.
    doStore(sys, 0, kData, 6);
    doDrain(sys, 0);
    // Concurrent remote reads and one remote write.
    unsigned done = 0;
    std::vector<std::uint32_t> read_values(4, 0);
    WordAccesses words;
    for (unsigned i = 0; i < 4; ++i) {
        words.load(sys.l1(1 + i), kData, [&, i](std::uint32_t v) {
            read_values[i] = v;
            ++done;
        });
    }
    words.store(sys.l1(7), kData, 9, [&] { ++done; });
    bool drained = false;
    sys.l1(7).drainWrites(Scope::Global, [&] { drained = true; });
    while ((done < 5 || !drained) && sys.eventQueue().step()) {
    }
    EXPECT_EQ(done, 5u);
    // Readers saw either the old or the new value (racy but must be
    // one of the two legal values).
    for (std::uint32_t v : read_values)
        EXPECT_TRUE(v == 6u || v == 9u) << "got " << v;
    EXPECT_EQ(sys.debugRead(kData), 9u);
}

TEST(DenovoProtocol, PartialLineOwnershipSplitsAcrossCus)
{
    System sys(ddConfig());
    // Different CUs own different words of the same line.
    doStore(sys, 0, kData, 10);
    doDrain(sys, 0);
    doStore(sys, 1, kData + 4, 11);
    doDrain(sys, 1);
    doStore(sys, 2, kData + 8, 12);
    doDrain(sys, 2);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(1))->ownsWord(kData + 4));
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(2))->ownsWord(kData + 8));
    // A fourth CU reads all three: forwards from three owners.
    EXPECT_EQ(doLoad(sys, 3, kData), 10u);
    EXPECT_EQ(doLoad(sys, 3, kData + 4), 11u);
    EXPECT_EQ(doLoad(sys, 3, kData + 8), 12u);
}

TEST(DenovoProtocol, DebugReadFindsOwnedWords)
{
    System sys(ddConfig());
    doStore(sys, 3, kData, 1212);
    doDrain(sys, 3);
    EXPECT_EQ(sys.debugRead(kData), 1212u);
}

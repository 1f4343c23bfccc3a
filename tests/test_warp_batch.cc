/**
 * @file
 * Exactness of coalesced warp accesses (TbContext::loadMany /
 * storeMany) on every protocol column. The words an L1 serves at hit
 * latency share one event; a miss completes at its own fill; a store
 * that stalls on a full store buffer keeps its own reply. None of this
 * may move a completion tick: the stall scenarios pin the ticks each
 * thread block finished at when every word still had its own event.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "gpu/tb_context.hh"
#include "test_util.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

constexpr Addr kBase = 0x10000;
constexpr Addr kLine2 = kBase + 0x1000;
constexpr Addr kLine3 = kBase + 0x2000;
constexpr unsigned kWarp = 8;

/** Thread block @p tb_on_cu of CU 0, driven outside any kernel. */
TbContext
makeTb(System &sys, unsigned tb_on_cu)
{
    return TbContext(sys.eventQueue(), sys.l1(0), sys.energy(), Rng(1),
                     0, tb_on_cu, 0, tb_on_cu, sys.numCus(), 3);
}

/** @p n consecutive word addresses from @p base. */
std::vector<Addr>
wordsFrom(Addr base, unsigned n)
{
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < n; ++i)
        addrs.push_back(base + i * kWordBytes);
    return addrs;
}

/** After @p delay cycles, one loadMany; @p done gets its end tick. */
SimTask
loadTb(TbContext &ctx, const std::vector<Addr> &addrs,
       std::vector<std::uint32_t> &values, Cycles delay, Tick &done)
{
    if (delay != 0)
        co_await ctx.wait(delay);
    co_await ctx.loadMany(addrs, values);
    done = ctx.now();
}

/** After @p delay cycles, one storeMany; @p done gets its end tick. */
SimTask
storeTb(TbContext &ctx, const std::vector<Addr> &addrs,
        const std::vector<std::uint32_t> &values, Cycles delay,
        Tick &done)
{
    if (delay != 0)
        co_await ctx.wait(delay);
    co_await ctx.storeMany(addrs, values);
    done = ctx.now();
}

/** Start @p task as a root task; @p finished counts its completion. */
void
launch(SimTask task, unsigned &finished)
{
    task.start([&finished] { ++finished; });
}

/** Give every word of @p addrs a distinct initial value. */
void
initWords(System &sys, const std::vector<Addr> &addrs)
{
    for (Addr addr : addrs)
        sys.writeInit(addr, static_cast<std::uint32_t>(addr / 4));
}

/**
 * Issue plain loads of @p addrs at once on CU 0 of a fresh system,
 * each its own one-word batch: the per-word reference a batch must
 * finish with.
 */
struct PlainLoads
{
    Tick lastDone = 0;
    std::uint64_t events = 0;
};

PlainLoads
plainLoads(System &sys, const std::vector<Addr> &addrs)
{
    PlainLoads ref;
    EventQueue &eq = sys.eventQueue();
    std::uint64_t before = eq.executed();
    WordAccesses words;
    for (Addr addr : addrs) {
        words.load(sys.l1(0), addr, [&ref, &eq](std::uint32_t) {
            ref.lastDone = std::max(ref.lastDone, eq.now());
        });
    }
    eq.run();
    ref.events = eq.executed() - before;
    return ref;
}

class WarpAccess : public ::testing::TestWithParam<ProtocolConfig>
{
  protected:
    SystemConfig
    config() const
    {
        SystemConfig config;
        config.protocol = GetParam();
        return config;
    }
};

} // namespace

// Resident words: the load batch and then the store batch each finish
// one hit latency after issue, on exactly one event.
TEST_P(WarpAccess, AllHitBatchIsOneEvent)
{
    System sys(config());
    EventQueue &eq = sys.eventQueue();
    std::vector<Addr> addrs = wordsFrom(kBase, kWarp);
    initWords(sys, addrs);
    doLoad(sys, 0, kBase);
    drainEvents(sys);
    ASSERT_TRUE(eq.empty());

    TbContext tb = makeTb(sys, 0);
    std::vector<std::uint32_t> values(kWarp);
    Tick loaded = 0;
    Tick stored = 0;
    unsigned finished = 0;
    Tick issued = eq.now();
    Cycles hit = kL1HitLatency;
    const L1Stats &stats = sys.l1(0).l1Stats();
    double hits_before = stats.loadHits->value();
    auto body = [](TbContext &ctx, const std::vector<Addr> &a,
                   std::vector<std::uint32_t> &v, Tick &l,
                   Tick &s) -> SimTask {
        co_await ctx.loadMany(a, v);
        l = ctx.now();
        for (std::uint32_t &x : v)
            x += 1;
        co_await ctx.storeMany(a, v);
        s = ctx.now();
    };
    launch(body(tb, addrs, values, loaded, stored), finished);

    EXPECT_EQ(eq.pending(), 1u);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(loaded, issued + hit);
    EXPECT_EQ(stats.loadHits->value() - hits_before, kWarp);
    EXPECT_EQ(eq.pending(), 1u);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(stored, issued + 2 * hit);
    EXPECT_EQ(finished, 1u);
    EXPECT_TRUE(eq.empty());

    for (unsigned i = 0; i < kWarp; ++i)
        EXPECT_EQ(values[i], addrs[i] / 4 + 1);
    doDrain(sys, 0);
    for (unsigned i = 0; i < kWarp; ++i)
        EXPECT_EQ(sys.debugRead(addrs[i]), addrs[i] / 4 + 1);
}

// Cold words over two lines, so misses merge in the MSHR: the batch
// adds no hit event and finishes at the last fill, exactly as the
// same loads issued one by one.
TEST_P(WarpAccess, AllMissBatchFinishesAtLastFill)
{
    std::vector<Addr> addrs = wordsFrom(kBase, kWarp / 2);
    for (Addr addr : wordsFrom(kLine2, kWarp / 2))
        addrs.push_back(addr);

    System ref_sys(config());
    initWords(ref_sys, addrs);
    PlainLoads ref = plainLoads(ref_sys, addrs);

    System sys(config());
    initWords(sys, addrs);
    EventQueue &eq = sys.eventQueue();
    TbContext tb = makeTb(sys, 0);
    std::vector<std::uint32_t> values(kWarp);
    Tick done = 0;
    unsigned finished = 0;
    launch(loadTb(tb, addrs, values, 0, done), finished);
    eq.run();
    EXPECT_EQ(finished, 1u);

    EXPECT_EQ(done, ref.lastDone);
    EXPECT_EQ(eq.executed(), ref.events);
    EXPECT_EQ(sys.l1(0).l1Stats().loadHits->value(), 0.0);
    for (unsigned i = 0; i < kWarp; ++i)
        EXPECT_EQ(values[i], addrs[i] / 4);
}

// Hits and misses interleaved: values come back in address order, the
// batch ends with the plain loads' last completion, and its hits cost
// one event instead of one each.
TEST_P(WarpAccess, MixedBatchKeepsAddressOrder)
{
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < kWarp / 2; ++i) {
        addrs.push_back(kBase + i * kWordBytes);
        addrs.push_back(kLine2 + i * kWordBytes);
    }
    auto warm = [&](System &sys) {
        initWords(sys, addrs);
        doLoad(sys, 0, kBase);
        drainEvents(sys);
    };

    System ref_sys(config());
    warm(ref_sys);
    PlainLoads ref = plainLoads(ref_sys, addrs);

    System sys(config());
    warm(sys);
    EventQueue &eq = sys.eventQueue();
    std::uint64_t before = eq.executed();
    TbContext tb = makeTb(sys, 0);
    std::vector<std::uint32_t> values(kWarp);
    Tick done = 0;
    unsigned finished = 0;
    launch(loadTb(tb, addrs, values, 0, done), finished);
    eq.run();
    EXPECT_EQ(finished, 1u);

    EXPECT_EQ(done, ref.lastDone);
    EXPECT_EQ(eq.executed() - before, ref.events - (kWarp / 2 - 1));
    for (unsigned i = 0; i < kWarp; ++i)
        EXPECT_EQ(values[i], addrs[i] / 4) << "word " << i;
}

namespace
{

/** Completion ticks of three thread blocks sharing CU 0. */
using Ticks = std::vector<Tick>;

/**
 * @p proto's row of @p table; "DeNovo" stands for all five DeNovo
 * columns. The rows were measured when every word had its own event.
 */
Ticks
pinned(const std::map<std::string, Ticks> &table,
       const ProtocolConfig &proto)
{
    auto it = table.find(proto.shortName());
    if (it != table.end())
        return it->second;
    return table.at("DeNovo");
}

SystemConfig
smallSb(const ProtocolConfig &proto)
{
    SystemConfig config;
    config.protocol = proto;
    config.geometry.storeBufferEntries = 4;
    return config;
}

} // namespace

// A 4-entry store buffer. TB 0 stores 6 words, so two stall. TB 1's
// 10-word storeMany, wider than the buffer, issues behind them, and
// TB 2 stores 5 more words 3 cycles later. GH stores in place and
// never stalls.
TEST_P(WarpAccess, StallingStoreManyKeepsEveryTick)
{
    System sys(smallSb(GetParam()));
    EventQueue &eq = sys.eventQueue();
    std::vector<TbContext> tbs;
    tbs.reserve(3);
    for (unsigned t = 0; t < 3; ++t)
        tbs.push_back(makeTb(sys, t));
    std::vector<std::vector<Addr>> addrs = {
        wordsFrom(kBase, 6), wordsFrom(kLine2, 10),
        wordsFrom(kLine3, 5)};
    std::vector<std::vector<std::uint32_t>> values(3);
    for (unsigned t = 0; t < 3; ++t) {
        for (unsigned i = 0; i < addrs[t].size(); ++i)
            values[t].push_back(100 * (t + 1) + i);
    }
    Ticks done(3);
    unsigned finished = 0;
    for (unsigned t = 0; t < 3; ++t) {
        launch(storeTb(tbs[t], addrs[t], values[t], t == 2 ? 3 : 0,
                       done[t]),
               finished);
    }
    eq.run();
    EXPECT_EQ(finished, 3u);

    EXPECT_EQ(done, pinned({{"GD", {192, 414, 636}},
                            {"GH", {1, 1, 4}},
                            {"DeNovo", {192, 414, 636}}},
                           GetParam()));
    doDrain(sys, 0);
    for (unsigned t = 0; t < 3; ++t) {
        for (unsigned i = 0; i < addrs[t].size(); ++i)
            EXPECT_EQ(sys.debugRead(addrs[t][i]), values[t][i]);
    }
    drainEvents(sys);
    EXPECT_EQ(sys.l1(0).checkInvariants(true),
              std::vector<std::string>{});
}

// The buffer is full of words the protocol can write without a
// message (on DeNovo, stores that buffered while their registration
// was in flight). A store that stalls then drains with nothing to
// wait for, and the stall queue runs inside the issuing storeMany.
// TB 2 loads the old line and TB 0's line while the stores drain.
TEST_P(WarpAccess, SynchronousOverflowDrainKeepsEveryTick)
{
    System sys(smallSb(GetParam()));
    EventQueue &eq = sys.eventQueue();
    L1Controller &l1 = sys.l1(0);
    WordAccesses words;
    for (unsigned i = 0; i < 4; ++i)
        words.store(l1, kBase + i * kWordBytes, 1 + i);
    l1.drainWrites(Scope::Global, [] {});
    for (unsigned i = 0; i < 4; ++i)
        words.store(l1, kBase + i * kWordBytes, 11 + i);
    eq.run();
    Tick start = eq.now();

    std::vector<TbContext> tbs;
    tbs.reserve(3);
    for (unsigned t = 0; t < 3; ++t)
        tbs.push_back(makeTb(sys, t));
    std::vector<Addr> b = wordsFrom(kLine2, 6);
    std::vector<Addr> c = wordsFrom(kLine3, 10);
    std::vector<std::uint32_t> b_vals;
    std::vector<std::uint32_t> c_vals;
    for (unsigned i = 0; i < b.size(); ++i)
        b_vals.push_back(100 + i);
    for (unsigned i = 0; i < c.size(); ++i)
        c_vals.push_back(200 + i);
    std::vector<Addr> mixed;
    for (unsigned i = 0; i < 4; ++i) {
        mixed.push_back(kBase + i * kWordBytes);
        mixed.push_back(kLine2 + i * kWordBytes);
    }
    std::vector<std::uint32_t> loaded(mixed.size());

    Ticks done(3);
    unsigned finished = 0;
    launch(storeTb(tbs[0], b, b_vals, 0, done[0]), finished);
    launch(storeTb(tbs[1], c, c_vals, 0, done[1]), finished);
    launch(loadTb(tbs[2], mixed, loaded, 2, done[2]), finished);
    eq.run();
    EXPECT_EQ(finished, 3u);
    for (Tick &t : done)
        t -= start;

    EXPECT_EQ(done, pinned({{"GD", {194, 416, 193}},
                            {"GH", {1, 1, 3}},
                            {"DeNovo", {192, 414, 3}}},
                           GetParam()));
    // GD: TB 0's stores still wait behind the drain when TB 2 loads.
    std::vector<std::uint32_t> expect = {11, 100, 12, 101,
                                         13, 102, 14, 103};
    if (GetParam().shortName() == "GD")
        expect = {11, 0, 12, 0, 13, 0, 14, 0};
    EXPECT_EQ(loaded, expect);
    doDrain(sys, 0);
    drainEvents(sys);
    EXPECT_EQ(sys.l1(0).checkInvariants(true),
              std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, WarpAccess,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         ConfigName{});

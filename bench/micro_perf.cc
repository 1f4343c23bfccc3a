/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths
 * (event queue, cache array, mesh routing, TB coroutine awaitables,
 * protocol end-to-end) — useful when optimizing the simulator itself.
 */

#include <array>
#include <span>
#include <string>

#include <benchmark/benchmark.h>

#include "coherence/region_map.hh"
#include "core/system.hh"
#include "gpu/tb_context.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "workloads/registry.hh"

using namespace nosync;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * A delay from the mix measured on the perfbench workloads: about 68%
 * under 4 ticks, 13% under 16, 11% under 64, 6% under 256 and the rest
 * up to 4096 (beyond the wheel's window).
 */
static Cycles
steadyStateDelay(std::uint64_t &rng)
{
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    std::uint64_t pick = rng % 100;
    std::uint64_t r = rng >> 8;
    if (pick < 68)
        return r % 4;
    if (pick < 81)
        return 4 + r % 12;
    if (pick < 92)
        return 16 + r % 48;
    if (pick < 98)
        return 64 + r % 192;
    return 256 + r % 3840;
}

/** An event that schedules its own successor when it runs. */
struct SteadyStateEvent
{
    EventQueue *eq;
    std::uint64_t *rng;

    void
    operator()() const
    {
        eq->scheduleIn(steadyStateDelay(*rng), *this);
    }
};

static void
BM_EventQueueSteadyState(benchmark::State &state)
{
    // The queue under load: about 2000 events pending (mesh_12x12
    // peaks at 1859), each executed event scheduling one successor.
    EventQueue eq;
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 2000; ++i)
        eq.scheduleIn(steadyStateDelay(rng), SteadyStateEvent{&eq, &rng});
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState);

static void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray array(32 * 1024, 8);
    for (Addr line = 0; line < 64; ++line) {
        CacheLine *victim = array.findVictim(line * kLineBytes);
        array.install(*victim, line * kLineBytes);
    }
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.lookup(addr));
        addr = (addr + kLineBytes) % (64 * kLineBytes);
    }
}
BENCHMARK(BM_CacheArrayLookup);

static void
BM_MeshSend(benchmark::State &state)
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh(eq, stats);
    for (auto _ : state) {
        mesh.send(0, 15, 5, TrafficClass::Read, [] {});
        eq.run();
    }
}
BENCHMARK(BM_MeshSend);

static void
BM_MeshSend8x8(benchmark::State &state)
{
    EventQueue eq;
    stats::StatSet stats;
    MeshParams params;
    params.width = 8;
    params.height = 8;
    Mesh mesh(eq, stats, params);
    for (auto _ : state) {
        mesh.send(0, 63, 5, TrafficClass::Read, [] {});
        eq.run();
    }
}
BENCHMARK(BM_MeshSend8x8);

static void
BM_MshrChurn(benchmark::State &state)
{
    // Steady-state L1/L2 MSHR traffic: allocate a batch of lines,
    // re-find each (the handler pattern: callbacks re-find() after
    // resuming coroutines), then deallocate. Payload sized like the
    // L2 fetch entry.
    struct Payload
    {
        std::vector<int> waiters;
        bool flag = false;
    };
    MshrTable<Payload> table(64);
    Addr next = 0;
    int sink = 0;
    for (auto _ : state) {
        for (Addr i = 0; i < 48; ++i)
            table.allocate((next + i) * kLineBytes);
        for (Addr i = 0; i < 48; ++i)
            sink += table.find((next + i) * kLineBytes) != nullptr;
        for (Addr i = 0; i < 48; ++i)
            table.deallocate((next + i) * kLineBytes);
        next += 48;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MshrChurn);

static void
BM_RegionMapProbe(benchmark::State &state)
{
    // DD+RO fill-time probe: one isReadOnly per installed word.
    RegionMap map;
    for (Addr r = 0; r < 16; ++r)
        map.addReadOnly(0x10000 + r * 0x1000, 0x800);
    Addr addr = 0;
    int sink = 0;
    for (auto _ : state) {
        sink += map.isReadOnly(0x10000 + (addr & 0xffff));
        addr = addr * 6364136223846793005ull + 1442695040888963407ull;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RegionMapProbe);

static void
BM_RegionMapLineMask(benchmark::State &state)
{
    RegionMap map;
    for (Addr r = 0; r < 16; ++r)
        map.addReadOnly(0x10000 + r * 0x1000, 0x800);
    Addr line = 0;
    WordMask sink = 0;
    for (auto _ : state) {
        sink ^= map.readOnlyMask(0x10000 + (line & 0xffc0));
        line += kLineBytes;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RegionMapLineMask);

/** One TB issuing @p count atomic fetch-adds to one word. */
static SimTask
fetchAddLoop(TbContext &ctx, Addr addr, unsigned count, unsigned &done)
{
    for (unsigned i = 0; i < count; ++i)
        co_await ctx.atomic(ctx.fetchAdd(addr, 1, Scope::Global));
    ++done;
}

static void
BM_TbAwaitSyncHit(benchmark::State &state)
{
    // The awaiter layer: TbContext::atomic suspends the coroutine,
    // the DD L1 performs a registration hit and the event queue
    // resumes it. One warm-up atomic registers the word; every
    // measured atomic then hits in the L1 with no network traffic.
    SystemConfig config;
    config.protocol = ProtocolConfig::dd();
    config.topology.mesh.width = 2;
    config.topology.mesh.height = 2;
    config.topology.cusPerDevice = 3;
    System system(config);
    EventQueue &eq = system.eventQueue();
    TbContext ctx(eq, system.l1(0), system.energy(), Rng(1), 0, 0, 0, 0,
                  3, 1);
    constexpr Addr kWord = 0x1000;
    unsigned done = 0;
    fetchAddLoop(ctx, kWord, 1, done).start([] {});
    eq.run();
    const L1Stats &stats = system.l1(0).l1Stats();
    double hits_before = stats.syncHits->value();
    for (auto _ : state) {
        fetchAddLoop(ctx, kWord, 1000, done).start([] {});
        eq.run();
    }
    benchmark::DoNotOptimize(done);
    if (stats.syncHits->value() - hits_before !=
        1000.0 * static_cast<double>(state.iterations()))
        state.SkipWithError("an atomic missed in the L1");
    state.SetItemsProcessed(state.iterations() * 1000);
    state.SetLabel("1000 L1-hit atomics through one TB on 2x2 DD");
}
BENCHMARK(BM_TbAwaitSyncHit);

/** One TB doing @p count loadMany + storeMany rounds over @p addrs. */
static SimTask
warpLoop(TbContext &ctx, std::span<const Addr> addrs,
         std::span<std::uint32_t> values, unsigned count,
         unsigned &done)
{
    for (unsigned i = 0; i < count; ++i) {
        co_await ctx.loadMany(addrs, values);
        for (std::uint32_t &v : values)
            ++v;
        co_await ctx.storeMany(addrs, values);
    }
    ++done;
}

static void
BM_TbAwaitWarpHit(benchmark::State &state)
{
    // The awaiter layer for coalesced warp accesses: one TB's
    // loadMany + storeMany of 8 resident words on 2x2 DD. Every load
    // hits in the L1 (or forwards from the store buffer) and every
    // store coalesces into the buffer, so each access is one event.
    SystemConfig config;
    config.protocol = ProtocolConfig::dd();
    config.topology.mesh.width = 2;
    config.topology.mesh.height = 2;
    config.topology.cusPerDevice = 3;
    System system(config);
    EventQueue &eq = system.eventQueue();
    TbContext ctx(eq, system.l1(0), system.energy(), Rng(1), 0, 0, 0, 0,
                  3, 1);
    std::array<Addr, 8> addrs;
    for (std::size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = 0x1000 + i * kWordBytes;
    std::array<std::uint32_t, 8> values{};
    unsigned done = 0;
    // Warm-up: the first round misses and fills the line.
    warpLoop(ctx, addrs, values, 1, done).start([] {});
    eq.run();
    const L1Stats &stats = system.l1(0).l1Stats();
    double misses_before = stats.loadMisses->value();
    double stalls_before = stats.sbOverflowDrains->value();
    for (auto _ : state) {
        warpLoop(ctx, addrs, values, 1000, done).start([] {});
        eq.run();
    }
    benchmark::DoNotOptimize(done);
    if (stats.loadMisses->value() != misses_before ||
        stats.sbOverflowDrains->value() != stalls_before)
        state.SkipWithError("a warp word missed in the L1");
    state.SetItemsProcessed(state.iterations() * 1000);
    state.SetLabel("1000 8-word loadMany+storeMany rounds through one "
                   "TB on 2x2 DD");
}
BENCHMARK(BM_TbAwaitWarpHit);

/** A dim x dim machine: one CU per node, the last node the CPU. */
static SystemConfig
meshConfig(unsigned dim, ProtocolConfig proto)
{
    SystemConfig config;
    config.protocol = proto;
    config.topology.mesh.width = dim;
    config.topology.mesh.height = dim;
    config.topology.cusPerDevice = dim * dim - 1;
    return config;
}

static void
BM_SystemBuild(benchmark::State &state)
{
    // The core layer's set-up cost on its own: every controller, mesh
    // table and cache array of a DD machine, built and torn down with
    // no run.
    unsigned dim = static_cast<unsigned>(state.range(0));
    SystemConfig config = meshConfig(dim, ProtocolConfig::dd());
    for (auto _ : state) {
        System system(config);
        benchmark::DoNotOptimize(&system);
    }
    state.SetLabel(std::to_string(dim) + "x" + std::to_string(dim) +
                   " DD System constructed and destroyed");
}
BENCHMARK(BM_SystemBuild)->Arg(4)->Arg(12)->Unit(benchmark::kMicrosecond);

static void
BM_DebugRead(benchmark::State &state)
{
    // The end-of-run oracle: System::debugRead over a fixed range of
    // words after a short FAM_L run on the 12x12 machine. Under GD no
    // L1 can own a word, so each read goes straight to its home bank;
    // under DD every L1 is asked first.
    ProtocolConfig proto =
        state.range(0) == 0 ? ProtocolConfig::gd() : ProtocolConfig::dd();
    System system(meshConfig(12, proto));
    auto workload = makeScaled("FAM_L", 1);
    if (!system.run(*workload).ok()) {
        state.SkipWithError("FAM_L run failed");
        return;
    }
    constexpr Addr kWords = 1024;
    std::uint32_t sink = 0;
    for (auto _ : state) {
        for (Addr w = 0; w < kWords; ++w)
            sink += system.debugRead(System::kAllocBase + w * kWordBytes);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kWords);
    state.SetLabel("1024 words after FAM_L on 12x12 " + proto.shortName());
}
BENCHMARK(BM_DebugRead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

static void
BM_EndToEndNN(benchmark::State &state)
{
    for (auto _ : state) {
        auto workload = makeScaled("NN", 100);
        SystemConfig config;
        System system(config);
        RunResult result = system.run(*workload);
        benchmark::DoNotOptimize(result.cycles);
    }
    state.SetLabel("full NN run on DD");
}
BENCHMARK(BM_EndToEndNN)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

/**
 * @file
 * Tests for the GPU execution layer: coroutine awaiters (load,
 * loadMany, storeMany, atomic, wait, scratch), sub-task composition,
 * kernel sequencing, and TB-to-CU assignment.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/** Workload harness running a user-supplied coroutine body. */
class LambdaWorkload : public Workload
{
  public:
    using Body = std::function<SimTask(TbContext &, LambdaWorkload &)>;

    LambdaWorkload(unsigned tbs, Body body)
        : _tbs(tbs), _body(std::move(body))
    {}

    std::string name() const override { return "lambda"; }

    void
    init(WorkloadEnv &env) override
    {
        scratchBase = env.alloc(4096);
        env.writeInit(scratchBase, 17);
        env.writeInit(scratchBase + 4, 23);
        env.writeInit(scratchBase + 8, 31);
    }

    KernelInfo kernelInfo(unsigned) const override { return {_tbs}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        return _body(ctx, *this);
    }

    Addr scratchBase = 0;
    std::atomic<unsigned> observations{0};
    std::vector<std::uint32_t> seen =
        std::vector<std::uint32_t>(64, 0);

  private:
    unsigned _tbs;
    Body _body;
};

RunResult
runLambda(LambdaWorkload &workload,
          ProtocolConfig proto = ProtocolConfig::dd())
{
    SystemConfig config;
    config.protocol = proto;
    System system(config);
    return system.run(workload);
}

} // namespace

TEST(GpuExec, LoadManyReturnsValuesInOrder)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        std::vector<Addr> addrs{self.scratchBase,
                                self.scratchBase + 4,
                                self.scratchBase + 8};
        std::vector<std::uint32_t> values(addrs.size());
        co_await ctx.loadMany(addrs, values);
        self.seen[0] = values[0];
        self.seen[1] = values[1];
        self.seen[2] = values[2];
        ++self.observations;
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 1u);
    EXPECT_EQ(wl.seen[0], 17u);
    EXPECT_EQ(wl.seen[1], 23u);
    EXPECT_EQ(wl.seen[2], 31u);
}

TEST(GpuExec, EmptyLoadManyCompletesImmediately)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        Tick before = ctx.now();
        co_await ctx.loadMany({}, {});
        self.seen[0] = static_cast<std::uint32_t>(ctx.now() - before);
        ++self.observations;
        co_await ctx.wait(1);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 1u);
    EXPECT_EQ(wl.seen[0], 0u);
}

TEST(GpuExec, StoreManyWritesAllWords)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        std::vector<Addr> addrs;
        std::vector<std::uint32_t> values;
        for (unsigned i = 0; i < 20; ++i) {
            addrs.push_back(self.scratchBase + 64 + i * 4);
            values.push_back(1000 + i);
        }
        co_await ctx.storeMany(addrs, values);
        // Read back through the same L1.
        std::vector<Addr> check_addrs{self.scratchBase + 64,
                                      self.scratchBase + 64 + 19 * 4};
        co_await ctx.loadMany(check_addrs,
                              std::span(values).first(2));
        self.seen[0] = values[0];
        self.seen[1] = values[1];
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 1000u);
    EXPECT_EQ(wl.seen[1], 1019u);
}

TEST(GpuExec, WaitAdvancesTime)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        Tick before = ctx.now();
        co_await ctx.wait(123);
        self.seen[0] = static_cast<std::uint32_t>(ctx.now() - before);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 123u);
}

TEST(GpuExec, ScratchChargesEnergy)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &)
                          -> SimTask { co_await ctx.scratch(64); });
    SystemConfig config;
    System system(config);
    ASSERT_TRUE(system.run(wl).ok());
    EXPECT_GT(system.energy().component(EnergyComponent::Scratch),
              0.0);
}

TEST(GpuExec, SubTaskComposition)
{
    // A coroutine awaiting a helper coroutine, like the mutex
    // helpers do.
    struct Helper
    {
        static SimTask
        addOne(TbContext &ctx, Addr addr)
        {
            std::uint32_t v = co_await ctx.load(addr);
            co_await ctx.store(addr, v + 1);
        }
    };
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        for (int i = 0; i < 5; ++i)
            co_await Helper::addOne(ctx, self.scratchBase);
        self.seen[0] = co_await ctx.load(self.scratchBase);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 22u); // 17 + 5
}

TEST(GpuExec, TbAssignmentIsRoundRobin)
{
    // TB i runs on CU i % numCus with tbOnCu = i / numCus.
    LambdaWorkload wl(32, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        unsigned expected_cu = ctx.tbGlobal() % ctx.numCus();
        unsigned expected_slot = ctx.tbGlobal() / ctx.numCus();
        if (ctx.cu() == expected_cu && ctx.tbOnCu() == expected_slot)
            ++self.observations;
        co_await ctx.wait(1);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 32u);
}

TEST(GpuExec, PerTbRngIsDeterministicAcrossConfigs)
{
    auto collect = [](ProtocolConfig proto) {
        std::vector<std::uint32_t> out(8);
        LambdaWorkload wl(
            8, [&out](TbContext &ctx, LambdaWorkload &) -> SimTask {
                out[ctx.tbGlobal()] =
                    static_cast<std::uint32_t>(ctx.rng().next());
                co_await ctx.wait(1);
            });
        SystemConfig config;
        config.protocol = proto;
        System system(config);
        EXPECT_TRUE(system.run(wl).ok());
        return out;
    };
    EXPECT_EQ(collect(ProtocolConfig::gd()),
              collect(ProtocolConfig::dd()));
}

TEST(GpuExec, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        auto workload = makeScaled("SPM_G", 10);
        SystemConfig config;
        config.protocol = ProtocolConfig::dd();
        System system(config);
        return system.run(*workload).cycles;
    };
    Tick a = run_once();
    Tick b = run_once();
    EXPECT_EQ(a, b);
}

TEST(GpuExec, KernelLaunchLatencyDelaysStart)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        self.seen[0] = static_cast<std::uint32_t>(ctx.now());
        co_await ctx.wait(1);
    });
    System system(SystemConfig{});
    ASSERT_TRUE(system.run(wl).ok());
    EXPECT_EQ(wl.seen[0], GpuDevice::kLaunchLatency);
}

namespace
{

constexpr AtomicFunc kFuncs[] = {
    AtomicFunc::Load, AtomicFunc::Store, AtomicFunc::FetchAdd,
    AtomicFunc::Exchange, AtomicFunc::CompareSwap};
constexpr const char *kFuncNames[] = {"atomic-load", "atomic-store",
                                      "fetch-add", "exchange",
                                      "compare-swap"};
constexpr Scope kScopes[] = {Scope::Local, Scope::Device, Scope::Global};
constexpr const char *kScopeNames[] = {"local", "device", "global"};

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

} // namespace

// Each awaiter records what its TB is suspended on, and a watchdog
// hang renders those records. The texts are pinned verbatim: they are
// what the awaiters printed when they still formatted eagerly.
TEST(GpuExec, HangReportNamesWhatEachAwaiterWaitsOn)
{
    ScopedLeakTolerance tolerate_abandoned_coroutines;
    // TBs 0-4 spin on the plain awaiters; one TB per atomic function
    // and scope follows.
    constexpr unsigned kPlainTbs = 5;
    constexpr unsigned kTbs = kPlainTbs + 5 * 3;

    LambdaWorkload wl(kTbs, [](TbContext &ctx, LambdaWorkload &self)
                                -> SimTask {
        unsigned tb = ctx.tbGlobal();
        self.seen[tb] = ctx.cu();
        Addr addr = self.scratchBase + 64 * tb;
        switch (tb) {
          case 0:
            for (;;)
                co_await ctx.load(addr);
          case 1:
            for (;;)
                co_await ctx.store(addr, 1);
          case 2:
            for (;;) {
                Addr addrs[] = {addr, addr + 4, addr + 8};
                std::uint32_t values[3];
                co_await ctx.loadMany(addrs, values);
            }
          case 3:
            for (;;) {
                Addr addrs[] = {addr, addr + 4};
                std::uint32_t values[] = {1, 2};
                co_await ctx.storeMany(addrs, values);
            }
          case 4:
            co_await ctx.wait(1'000'000);
            co_return;
          default:
            break;
        }
        SyncOp op;
        op.func = kFuncs[(tb - kPlainTbs) / 3];
        op.scope = kScopes[(tb - kPlainTbs) % 3];
        op.addr = addr;
        for (;;)
            co_await ctx.atomic(op);
    });

    for (ProtocolConfig proto :
         {ProtocolConfig::gd(), ProtocolConfig::dd()}) {
        SCOPED_TRACE(proto.shortName());
        SystemConfig config;
        config.protocol = proto;
        config.execution.maxCycles = 20'000;
        System system(config);
        RunResult result = system.run(wl);
        ASSERT_TRUE(result.hang.has_value());
        const std::vector<std::string> &waits = result.hang->tbWaits;
        ASSERT_EQ(waits.size(), kTbs);

        for (unsigned tb = 0; tb < kTbs; ++tb) {
            Addr addr = wl.scratchBase + 64 * tb;
            std::string what;
            switch (tb) {
              case 0: what = "load " + hexAddr(addr); break;
              case 1: what = "store " + hexAddr(addr); break;
              case 2:
                what = "loadMany of 3 words at " + hexAddr(addr);
                break;
              case 3:
                what = "storeMany of 2 words at " + hexAddr(addr);
                break;
              case 4: what = "delay of 1000000 cycles"; break;
              default:
                what = std::string(kFuncNames[(tb - kPlainTbs) / 3]) +
                       " " + hexAddr(addr) + " (" +
                       kScopeNames[(tb - kPlainTbs) % 3] + " scope)";
                break;
            }
            std::string expected = "kernel 0 tb " + std::to_string(tb) +
                                   " (cu " + std::to_string(wl.seen[tb]) +
                                   "): awaiting " + what + " since tick ";
            EXPECT_EQ(waits[tb].substr(0, expected.size()), expected);
            // The rest is the tick the wait began, before the hang.
            std::string since = waits[tb].substr(expected.size());
            ASSERT_FALSE(since.empty());
            EXPECT_EQ(since.find_first_not_of("0123456789"),
                      std::string::npos)
                << waits[tb];
            EXPECT_LE(std::stoull(since), result.hang->tick);
        }
    }
}

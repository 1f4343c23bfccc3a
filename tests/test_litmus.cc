/**
 * @file
 * Litmus tests run through the full stack (GpuDevice + workloads) on
 * every studied configuration: message passing, kernel-boundary
 * visibility, store buffering at releases, and HRF scope transitivity.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workloads/sync_primitives.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/** Message passing: TB0 writes data then releases a flag; TB1
 *  acquires the flag then must see the data. */
class MessagePassing : public Workload
{
  public:
    std::string name() const override { return "litmus-mp"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
        _result = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override
    {
        // Two TBs on different CUs (assignment is round-robin).
        return {2};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            co_await ctx.store(_data + 4, 42);
            co_await ctx.atomic(
                ctx.atomicStore(_flag, 1, Scope::Global));
            co_return;
        }
        while (true) {
            std::uint32_t f = co_await ctx.atomic(
                ctx.atomicLoad(_flag, Scope::Global));
            if (f == 1)
                break;
        }
        std::uint32_t a = co_await ctx.load(_data);
        std::uint32_t b = co_await ctx.load(_data + 4);
        co_await ctx.store(_result, a);
        co_await ctx.store(_result + 4, b);
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        if (env.debugRead(_result) != 41 ||
            env.debugRead(_result + 4) != 42) {
            failures.push_back("consumer read stale data after "
                               "acquire");
        }
        return failures;
    }

  private:
    Addr _data = 0, _flag = 0, _result = 0;
};

/** Kernel-boundary visibility: kernel 0 TBs write, kernel 1 TBs read
 *  rotated slices; the implicit kernel release/acquire must order
 *  them. */
class KernelBoundary : public Workload
{
  public:
    std::string name() const override { return "litmus-kernel"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kTbs * kWordsEach * kWordBytes);
        _result = env.alloc(kTbs * kWordBytes);
    }

    unsigned numKernels() const override { return 2; }
    KernelInfo kernelInfo(unsigned) const override { return {kTbs}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        unsigned tb = ctx.tbGlobal();
        if (ctx.kernel() == 0) {
            for (unsigned w = 0; w < kWordsEach; ++w) {
                co_await ctx.store(
                    _data + (tb * kWordsEach + w) * kWordBytes,
                    tb * 1000 + w);
            }
            co_return;
        }
        // Kernel 1: read the slice written by the "next" TB.
        unsigned src = (tb + 1) % kTbs;
        std::uint32_t sum = 0;
        for (unsigned w = 0; w < kWordsEach; ++w) {
            sum += co_await ctx.load(
                _data + (src * kWordsEach + w) * kWordBytes);
        }
        co_await ctx.store(_result + tb * kWordBytes, sum);
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        for (unsigned tb = 0; tb < kTbs; ++tb) {
            unsigned src = (tb + 1) % kTbs;
            std::uint32_t expected = 0;
            for (unsigned w = 0; w < kWordsEach; ++w)
                expected += src * 1000 + w;
            std::uint32_t got =
                env.debugRead(_result + tb * kWordBytes);
            if (got != expected) {
                failures.push_back(
                    "TB " + std::to_string(tb) +
                    " read stale data across a kernel boundary");
            }
        }
        return failures;
    }

  private:
    static constexpr unsigned kTbs = 30;
    static constexpr unsigned kWordsEach = 24; // spans lines

    Addr _data = 0, _result = 0;
};

/**
 * HRF-Indirect transitivity: TB0 writes data and releases locally;
 * TB1 (same CU) acquires locally, then releases globally; TB2 (other
 * CU) acquires globally and must see TB0's write.
 */
class ScopeTransitivity : public Workload
{
  public:
    std::string name() const override { return "litmus-transitive"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _localFlag = env.alloc(kLineBytes);
        _globalFlag = env.alloc(kLineBytes);
        _result = env.alloc(kLineBytes);
        _numCus = env.numCus();
    }

    KernelInfo kernelInfo(unsigned) const override
    {
        // TB0 and TB1 land on CU 0; TB2 lands on CU 1.
        return {_numCus + 2};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            // Producer on CU 0.
            co_await ctx.store(_data, 2026);
            co_await ctx.atomic(
                ctx.atomicStore(_localFlag, 1, Scope::Local));
            co_return;
        }
        if (ctx.tbGlobal() == _numCus) {
            // Relay on CU 0 (second TB there).
            while (true) {
                std::uint32_t f = co_await ctx.atomic(
                    ctx.atomicLoad(_localFlag, Scope::Local));
                if (f == 1)
                    break;
            }
            co_await ctx.atomic(
                ctx.atomicStore(_globalFlag, 1, Scope::Global));
            co_return;
        }
        if (ctx.tbGlobal() == 1) {
            // Observer on CU 1.
            while (true) {
                std::uint32_t f = co_await ctx.atomic(
                    ctx.atomicLoad(_globalFlag, Scope::Global));
                if (f == 1)
                    break;
            }
            std::uint32_t v = co_await ctx.load(_data);
            co_await ctx.store(_result, v);
        }
        co_return;
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        if (env.debugRead(_result) != 2026) {
            failures.push_back(
                "transitive release chain leaked stale data (got " +
                std::to_string(env.debugRead(_result)) + ")");
        }
        return failures;
    }

  private:
    Addr _data = 0, _localFlag = 0, _globalFlag = 0, _result = 0;
    unsigned _numCus = 0;
};

/** Store buffering: both TBs store then acquire-read the other's
 *  word through sync accesses; at least one must see the other's
 *  store (no "both read 0" outcome once releases are used). */
class StoreBufferingSc : public Workload
{
  public:
    std::string name() const override { return "litmus-sb"; }

    void
    init(WorkloadEnv &env) override
    {
        _x = env.alloc(kLineBytes);
        _y = env.alloc(kLineBytes);
        _rx = env.alloc(kLineBytes);
        _ry = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.atomic(ctx.atomicStore(_x, 1, Scope::Global));
            std::uint32_t v = co_await ctx.atomic(
                ctx.atomicLoad(_y, Scope::Global));
            co_await ctx.store(_rx, v + 100);
        } else {
            co_await ctx.atomic(ctx.atomicStore(_y, 1, Scope::Global));
            std::uint32_t v = co_await ctx.atomic(
                ctx.atomicLoad(_x, Scope::Global));
            co_await ctx.store(_ry, v + 100);
        }
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        std::uint32_t rx = env.debugRead(_rx);
        std::uint32_t ry = env.debugRead(_ry);
        // Sync accesses are SC: both reading 0 is forbidden.
        if (rx == 100 && ry == 100) {
            failures.push_back(
                "store buffering violated SC for sync accesses");
        }
        return failures;
    }

  private:
    Addr _x = 0, _y = 0, _rx = 0, _ry = 0;
};

class LitmusTest : public ::testing::TestWithParam<ProtocolConfig>
{
  protected:
    RunResult
    runOn(Workload &workload)
    {
        SystemConfig config;
        config.protocol = GetParam();
        System system(config);
        return system.run(workload);
    }
};

} // namespace

TEST_P(LitmusTest, MessagePassing)
{
    MessagePassing workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(LitmusTest, KernelBoundaryVisibility)
{
    KernelBoundary workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(LitmusTest, ScopeTransitivity)
{
    ScopeTransitivity workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(LitmusTest, StoreBufferingScForSync)
{
    StoreBufferingSc workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LitmusTest,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         test::ConfigName{});

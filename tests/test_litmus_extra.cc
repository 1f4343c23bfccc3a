/**
 * @file
 * Additional litmus tests: IRIW-style coherence of sync accesses,
 * lock-handoff chains across every CU, dynamic work migration, and
 * DD+RO region-safety (read-only words never mask true updates made
 * before the region was in use).
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workloads/sync_primitives.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/**
 * IRIW with sync accesses: two writers write x and y; two readers
 * read (x then y) and (y then x). Under SC-for-sync, the two readers
 * must not disagree on the order of the writes: outcome
 * r1=(1,0) with r2=(1,0) is forbidden (it would order x<y and y<x).
 */
class Iriw : public Workload
{
  public:
    std::string name() const override { return "litmus-iriw"; }

    void
    init(WorkloadEnv &env) override
    {
        _x = env.alloc(kLineBytes);
        _y = env.alloc(kLineBytes);
        _r = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {4}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        switch (ctx.tbGlobal()) {
          case 0:
            co_await ctx.atomic(
                ctx.atomicStore(_x, 1, Scope::Global));
            break;
          case 1:
            co_await ctx.atomic(
                ctx.atomicStore(_y, 1, Scope::Global));
            break;
          case 2: {
            std::uint32_t a = co_await ctx.atomic(
                ctx.atomicLoad(_x, Scope::Global));
            std::uint32_t b = co_await ctx.atomic(
                ctx.atomicLoad(_y, Scope::Global));
            co_await ctx.store(_r, (a << 1) | b);
            break;
          }
          case 3: {
            std::uint32_t a = co_await ctx.atomic(
                ctx.atomicLoad(_y, Scope::Global));
            std::uint32_t b = co_await ctx.atomic(
                ctx.atomicLoad(_x, Scope::Global));
            co_await ctx.store(_r + 4, (a << 1) | b);
            break;
          }
        }
        co_return;
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::uint32_t r1 = env.debugRead(_r);
        std::uint32_t r2 = env.debugRead(_r + 4);
        // (saw first, missed second) on both sides = cycle.
        if (r1 == 0b10 && r2 == 0b10)
            return {"IRIW: readers disagreed on the write order"};
        return {};
    }

  private:
    Addr _x = 0, _y = 0, _r = 0;
};

/**
 * Lock handoff chain: a token travels CU to CU under a global spin
 * lock; each hop appends its id to a running hash. Any lost update
 * or stale read breaks the final hash.
 */
class HandoffChain : public Workload
{
  public:
    static constexpr unsigned kHops = 60;

    std::string name() const override { return "litmus-handoff"; }

    void
    init(WorkloadEnv &env) override
    {
        _numCus = env.numCus();
        _lock = env.alloc(kLineBytes);
        _turn = env.alloc(kLineBytes);
        _hash = env.alloc(kLineBytes);
        env.writeInit(_hash, 1);
    }

    KernelInfo kernelInfo(unsigned) const override
    {
        return {_numCus};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        MutexAddrs lock{_lock, _lock + kWordBytes};
        for (unsigned hop = 0; hop < kHops; ++hop) {
            if (hop % ctx.numCus() != ctx.tbGlobal())
                continue; // not my turn slot
            // Wait for my turn, then mutate under the lock.
            while (true) {
                std::uint32_t turn = co_await ctx.atomic(
                    ctx.atomicLoad(_turn, Scope::Global));
                if (turn == hop)
                    break;
            }
            MutexTicket t;
            co_await mutexLock(ctx, lock, MutexKind::Spin,
                               Scope::Global, t);
            std::uint32_t h = co_await ctx.load(_hash);
            co_await ctx.store(_hash,
                               h * 31 + ctx.tbGlobal() + 1);
            co_await mutexUnlock(ctx, lock, MutexKind::Spin,
                                 Scope::Global, t);
            co_await ctx.atomic(ctx.atomicStore(_turn, hop + 1,
                                                Scope::Global));
        }
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::uint32_t expected = 1;
        for (unsigned hop = 0; hop < kHops; ++hop)
            expected = expected * 31 + (hop % _numCus) + 1;
        std::uint32_t got = env.debugRead(_hash);
        if (got != expected) {
            return {"handoff hash " + std::to_string(got) +
                    " != " + std::to_string(expected)};
        }
        return {};
    }

  private:
    unsigned _numCus = 0;
    Addr _lock = 0, _turn = 0, _hash = 0;
};

/**
 * Work migration: items produced on one CU under its local lock are
 * later consumed on another CU via a global queue, mimicking UTS's
 * dynamic sharing with a deterministic final checksum.
 */
class Migration : public Workload
{
  public:
    static constexpr unsigned kItems = 8;

    std::string name() const override { return "litmus-migration"; }

    void
    init(WorkloadEnv &env) override
    {
        _numCus = env.numCus();
        _queue = env.alloc((kItems * _numCus + 4) * kWordBytes);
        _qlock = env.alloc(kLineBytes);
        _qtail = env.alloc(kLineBytes);
        _sum = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override
    {
        return {2 * _numCus};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        MutexAddrs qlock{_qlock, _qlock + kWordBytes};
        if (ctx.tbOnCu() == 0) {
            // Producer: push kItems distinct values.
            for (unsigned i = 0; i < kItems; ++i) {
                MutexTicket t;
                co_await mutexLock(ctx, qlock, MutexKind::Spin,
                                   Scope::Global, t);
                std::uint32_t tail = co_await ctx.load(_qtail);
                co_await ctx.store(_queue + tail * kWordBytes,
                                   ctx.cu() * 100 + i + 1);
                co_await ctx.store(_qtail, tail + 1);
                co_await mutexUnlock(ctx, qlock, MutexKind::Spin,
                                     Scope::Global, t);
            }
            co_return;
        }
        // Consumer: pop until the queue stays empty with all
        // producers done (bounded retries keep the test finite).
        std::uint32_t local = 0;
        unsigned dry = 0;
        while (dry < 50) {
            std::uint32_t item = 0;
            MutexTicket t;
            co_await mutexLock(ctx, qlock, MutexKind::Spin,
                               Scope::Global, t);
            std::uint32_t tail = co_await ctx.load(_qtail);
            if (tail > 0) {
                item = co_await ctx.load(_queue +
                                         (tail - 1) * kWordBytes);
                co_await ctx.store(_qtail, tail - 1);
            }
            co_await mutexUnlock(ctx, qlock, MutexKind::Spin,
                                 Scope::Global, t);
            if (item == 0) {
                ++dry;
                co_await ctx.wait(200);
                continue;
            }
            dry = 0;
            local += item;
        }
        if (local != 0) {
            co_await ctx.atomic(ctx.fetchAdd(_sum, local,
                                             Scope::Global));
        }
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::uint32_t expected = 0;
        for (unsigned cu = 0; cu < _numCus; ++cu) {
            for (unsigned i = 0; i < kItems; ++i)
                expected += cu * 100 + i + 1;
        }
        std::uint32_t got = env.debugRead(_sum);
        // Consumers may exit early leaving items queued; anything
        // consumed must be accounted exactly once.
        std::uint32_t tail = env.debugRead(_qtail);
        std::uint32_t remaining = 0;
        for (std::uint32_t i = 0; i < tail; ++i)
            remaining += env.debugRead(_queue + i * kWordBytes);
        if (got + remaining != expected) {
            return {"migration sum " + std::to_string(got) + " + " +
                    std::to_string(remaining) +
                    " queued != " + std::to_string(expected)};
        }
        return {};
    }

  private:
    unsigned _numCus = 0;
    Addr _queue = 0, _qlock = 0, _qtail = 0, _sum = 0;
};

class LitmusExtra : public ::testing::TestWithParam<ProtocolConfig>
{
  protected:
    RunResult
    runOn(Workload &workload)
    {
        SystemConfig config;
        config.protocol = GetParam();
        config.execution.maxCycles = 100'000'000ull;
        System system(config);
        return system.run(workload);
    }
};

} // namespace

TEST_P(LitmusExtra, IriwScForSync)
{
    Iriw workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(LitmusExtra, LockHandoffChain)
{
    HandoffChain workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(LitmusExtra, WorkMigration)
{
    Migration workload;
    RunResult result = runOn(workload);
    EXPECT_TRUE(result.ok()) << result.checkFailures.front();
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LitmusExtra,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         test::ConfigName{});

/**
 * @file
 * Synchronization primitive tests: each Stuart-Owens primitive is
 * exercised at small scale on every configuration, with the
 * benchmark-embedded invariants (mutual exclusion, reader-writer
 * exclusion, barrier epochs) doing the checking.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hh"
#include "workloads/microbench.hh"
#include "workloads/sync_primitives.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

MicrobenchParams
tinyParams()
{
    MicrobenchParams params;
    params.iterations = 5;
    params.workWords = 4;
    params.threads = 8;
    return params;
}

class SyncPrimitives : public ::testing::TestWithParam<ProtocolConfig>
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

TEST_P(SyncPrimitives, FetchAddMutexGlobal)
{
    MutexBench bench(MutexKind::FetchAdd, Scope::Global, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, SleepMutexGlobal)
{
    MutexBench bench(MutexKind::Sleep, Scope::Global, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, SpinMutexGlobal)
{
    MutexBench bench(MutexKind::Spin, Scope::Global, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, SpinBackoffMutexLocal)
{
    MutexBench bench(MutexKind::SpinBackoff, Scope::Local, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, SpinMutexLocal)
{
    MutexBench bench(MutexKind::Spin, Scope::Local, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, ReaderWriterSemaphore)
{
    MicrobenchParams params = tinyParams();
    params.iterations = 6;
    SemaphoreBench bench(false, params);
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, ReaderWriterSemaphoreBackoff)
{
    MicrobenchParams params = tinyParams();
    params.iterations = 6;
    SemaphoreBench bench(true, params);
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, TreeBarrier)
{
    TreeBarrierBench bench(false, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

TEST_P(SyncPrimitives, TreeBarrierWithLocalExchange)
{
    TreeBarrierBench bench(true, tinyParams());
    RunResult r = runOn(bench);
    EXPECT_TRUE(r.ok()) << r.checkFailures.front();
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SyncPrimitives,
                         ::testing::ValuesIn(ProtocolConfig::all()),
                         test::ConfigName{});

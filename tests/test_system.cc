/**
 * @file
 * Tests for the System public API: construction per configuration,
 * allocation, coherent debug reads, result reporting, and the UTS
 * workload's tree generation.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workloads/registry.hh"
#include "workloads/uts.hh"

using namespace nosync;
using namespace nosync::test;

TEST(System, BuildsEveryConfiguration)
{
    for (const auto &proto : ProtocolConfig::all()) {
        SystemConfig config;
        config.protocol = proto;
        System system(config);
        EXPECT_EQ(system.numCus(), 15u);
        EXPECT_EQ(system.mesh().numNodes(), 16u);
        if (proto.protocol() == CoherenceProtocol::Denovo) {
            EXPECT_NE(as<DenovoL1Cache>(system.l1(0)), nullptr);
            EXPECT_EQ(as<GpuL1Cache>(system.l1(0)), nullptr);
        } else {
            EXPECT_NE(as<GpuL1Cache>(system.l1(0)), nullptr);
            EXPECT_EQ(as<DenovoL1Cache>(system.l1(0)), nullptr);
        }
    }
}

TEST(System, AllocIsLineAlignedAndDisjoint)
{
    SystemConfig config;
    System system(config);
    Addr a = system.alloc(10);
    Addr b = system.alloc(100);
    EXPECT_EQ(a % kLineBytes, 0u);
    EXPECT_EQ(b % kLineBytes, 0u);
    EXPECT_GE(b, a + kLineBytes);
}

TEST(System, DebugReadFallsBackToMemory)
{
    SystemConfig config;
    System system(config);
    system.writeInit(0x5000, 909);
    EXPECT_EQ(system.debugRead(0x5000), 909u);
}

TEST(System, HrfFlagTracksConsistency)
{
    SystemConfig config;
    config.protocol = ProtocolConfig::gh();
    System gh(config);
    EXPECT_TRUE(gh.hrf());
    config.protocol = ProtocolConfig::dd();
    System dd(config);
    EXPECT_FALSE(dd.hrf());
}

TEST(System, RunFillsReportFields)
{
    auto workload = makeScaled("NN", 100);
    SystemConfig config;
    System system(config);
    RunResult result = system.run(*workload);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.workload, "NN");
    EXPECT_EQ(result.config, "DD");
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.energyTotal, 0.0);
    EXPECT_GT(result.trafficTotal, 0.0);
    double component_sum = 0.0;
    for (double c : result.energy)
        component_sum += c;
    EXPECT_DOUBLE_EQ(component_sum, result.energyTotal);
}

TEST(System, WatchdogReportsFailure)
{
    ScopedLeakTolerance tolerate_abandoned_coroutines;
    // A spin mutex can't finish in 100 cycles.
    auto workload = makeScaled("SPM_G", 10);
    SystemConfig config;
    config.execution.maxCycles = 100;
    System system(config);
    RunResult result = system.run(*workload);
    EXPECT_FALSE(result.ok());
}

TEST(SystemDeathTest, SecondRunIsFatal)
{
    auto w1 = makeScaled("NN", 100);
    auto w2 = makeScaled("NN", 100);
    SystemConfig config;
    System system(config);
    system.run(*w1);
    EXPECT_EXIT(system.run(*w2),
                ::testing::ExitedWithCode(1), "fresh System");
}

TEST(Uts, TreeCoversAllNodes)
{
    // Generation must assign every node id exactly once regardless
    // of seed (it retries dead branches deterministically).
    for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
        UtsParams params;
        params.numNodes = 512;
        params.shapeSeed = seed;
        Uts uts(params);
        SystemConfig config;
        System system(config);
        RunResult result = system.run(uts);
        ASSERT_TRUE(result.ok())
            << "seed " << seed << ": "
            << result.checkFailures.front();
    }
}

TEST(Uts, NodeValueIsStable)
{
    EXPECT_EQ(Uts::nodeValue(0), Uts::nodeValue(0));
    EXPECT_NE(Uts::nodeValue(1), Uts::nodeValue(2));
}

TEST(GpuDevice, MultiKernelRunsAllKernels)
{
    auto workload = makeScaled("PF", 100); // 10 kernels
    SystemConfig config;
    System system(config);
    RunResult result = system.run(*workload);
    EXPECT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(system.stats().find("gpu.kernels_launched")->value(), 10.0);
}

TEST(GpuDevice, CountsThreadBlocks)
{
    auto workload = makeScaled("NN", 100);
    SystemConfig config;
    System system(config);
    system.run(*workload);
    EXPECT_DOUBLE_EQ(system.stats().find("gpu.tbs_executed")->value(), 30.0);
}

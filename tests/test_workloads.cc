/**
 * @file
 * End-to-end workload tests: every Table 4 benchmark runs its own
 * functional check on every configuration (reduced scale), and the
 * registry metadata is complete.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

TEST(Registry, HasAllTable4Benchmarks)
{
    EXPECT_EQ(workloadRegistry().size(), 37u);
    EXPECT_EQ(workloadsInGroup("no-sync").size(), 10u);
    EXPECT_EQ(workloadsInGroup("global-sync").size(), 4u);
    EXPECT_EQ(workloadsInGroup("local-sync").size(), 9u);
    EXPECT_EQ(workloadsInGroup("device-sync").size(), 2u);
    EXPECT_EQ(workloadsInGroup("graph").size(), 12u);
}

TEST(Registry, LookupByName)
{
    ASSERT_NE(findWorkload("UTS"), nullptr);
    EXPECT_EQ(findWorkload("UTS")->group, "local-sync");
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Registry, FactoriesProduceMatchingNames)
{
    // Below 100 every row builds its reduced variant; at 100, the
    // paper's input. Both must carry the row's name.
    for (unsigned scale : {1u, 10u, 99u, 100u}) {
        for (const auto &desc : workloadRegistry()) {
            EXPECT_EQ(desc.make(scale)->name(), desc.name)
                << "scale " << scale;
            EXPECT_EQ(makeScaled(desc.name, scale)->name(), desc.name)
                << "scale " << scale;
        }
    }
}

TEST(RegistryDeathTest, MakeScaledRefusesScaleOutsideRange)
{
    EXPECT_EXIT(makeScaled("FAM_G", 0), ::testing::ExitedWithCode(1),
                "outside \\[1, 100\\]");
    EXPECT_EXIT(makeScaled("FAM_G", 101), ::testing::ExitedWithCode(1),
                "outside \\[1, 100\\]");
}

namespace
{

using WorkloadParam = std::tuple<std::string, ProtocolConfig>;

class WorkloadRun : public ::testing::TestWithParam<WorkloadParam>
{
};

std::vector<WorkloadParam>
allRuns(const std::string &group, unsigned stride = 1)
{
    std::vector<WorkloadParam> params;
    unsigned i = 0;
    for (const auto *desc : workloadsInGroup(group)) {
        for (const auto &config : ProtocolConfig::all()) {
            if (i++ % stride == 0)
                params.emplace_back(desc->name, config);
        }
    }
    return params;
}

struct RunName
{
    std::string
    operator()(const ::testing::TestParamInfo<WorkloadParam> &info)
        const
    {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param).shortName();
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    }
};

} // namespace

TEST_P(WorkloadRun, FunctionalCheckPasses)
{
    const auto &[name, proto] = GetParam();
    auto workload = makeScaled(name, 10);
    SystemConfig config;
    config.protocol = proto;
    config.execution.maxCycles = 200'000'000ull;
    System system(config);
    RunResult result = system.run(*workload);
    ASSERT_TRUE(result.ok())
        << name << " on " << result.config << ": "
        << result.checkFailures.front();
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.energyTotal, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Apps, WorkloadRun,
                         ::testing::ValuesIn(allRuns("no-sync")),
                         RunName{});
INSTANTIATE_TEST_SUITE_P(GlobalSync, WorkloadRun,
                         ::testing::ValuesIn(allRuns("global-sync")),
                         RunName{});
INSTANTIATE_TEST_SUITE_P(LocalSync, WorkloadRun,
                         ::testing::ValuesIn(allRuns("local-sync")),
                         RunName{});
INSTANTIATE_TEST_SUITE_P(Graph, WorkloadRun,
                         ::testing::ValuesIn(allRuns("graph")),
                         RunName{});

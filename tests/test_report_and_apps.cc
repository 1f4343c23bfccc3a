/**
 * @file
 * Tests for the reporting helpers and the application models' host
 * mirrors (every app's simulated output must equal its host-side
 * expected computation at multiple sizes, and the work-partitioning
 * schemes must cover their domains exactly).
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "matrices.hh"
#include "test_util.hh"
#include "workloads/apps.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

// ---------------------------------------------------------------------
// Report helpers
// ---------------------------------------------------------------------

namespace
{

RunResult
fakeRun(const std::string &config, Tick cycles, double energy,
        double traffic)
{
    RunResult run;
    run.config = config;
    run.cycles = cycles;
    run.energyTotal = energy;
    run.trafficTotal = traffic;
    return run;
}

} // namespace

TEST(Report, MetricSelection)
{
    RunResult run = fakeRun("GD", 100, 2.5, 7.0);
    EXPECT_DOUBLE_EQ(metricOf(run, 0), 100.0);
    EXPECT_DOUBLE_EQ(metricOf(run, 1), 2.5);
    EXPECT_DOUBLE_EQ(metricOf(run, 2), 7.0);
}

TEST(Report, AverageNormalized)
{
    std::vector<WorkloadResults> results(2);
    results[0].workload = "a";
    results[0].runs = {fakeRun("GD", 100, 1, 1),
                       fakeRun("DD", 50, 1, 1)};
    results[1].workload = "b";
    results[1].runs = {fakeRun("GD", 200, 1, 1),
                       fakeRun("DD", 300, 1, 1)};
    // DD vs GD: 0.5 and 1.5 -> mean 1.0
    EXPECT_DOUBLE_EQ(averageNormalized(results, 0, 1, 0), 1.0);
    // GD vs itself: 1.0
    EXPECT_DOUBLE_EQ(averageNormalized(results, 0, 0, 0), 1.0);
}

TEST(Report, RenderFigureContainsRowsAndAverage)
{
    std::vector<WorkloadResults> results(1);
    results[0].workload = "bench";
    results[0].runs = {fakeRun("GD", 100, 1, 1),
                       fakeRun("DD", 80, 1, 1)};
    std::string table = renderFigure(results, 0, 0, "test table");
    EXPECT_NE(table.find("test table"), std::string::npos);
    EXPECT_NE(table.find("bench"), std::string::npos);
    EXPECT_NE(table.find("GD"), std::string::npos);
    EXPECT_NE(table.find("80.00%"), std::string::npos);
    EXPECT_NE(table.find("AVG"), std::string::npos);
}

// ---------------------------------------------------------------------
// Headline claims over the Fig. 2-4 matrices
// ---------------------------------------------------------------------

namespace
{

/**
 * Two workloads per Fig. 2-4 matrix, each column's time, energy and
 * traffic equal to its rank: DH < DD+RO < GH < DD < GD, so every
 * reproduced direction holds.
 */
bench::FigureResults
rankedFigures()
{
    const std::map<std::string, double> rank = {
        {"DH", 1}, {"DD+RO", 2}, {"GH", 3}, {"DD", 4}, {"GD", 5}};
    bench::FigureResults figures;
    for (const char *name :
         {"fig2_apps", "fig3_global_sync", "fig4_local_sync"}) {
        const bench::MatrixSpec &spec = bench::matrix(name);
        for (const char *workload : {"W0", "W1"}) {
            WorkloadResults wr;
            wr.workload = workload;
            for (const ProtocolConfig &proto :
                 spec.columns(bench::Options())) {
                double r = rank.at(proto.shortName());
                wr.runs.push_back(fakeRun(proto.shortName(),
                                          static_cast<Tick>(r), r, r));
            }
            figures[name].push_back(wr);
        }
    }
    return figures;
}

} // namespace

TEST(HeadlineClaims, EveryDirectionHoldsOnRankedTable)
{
    EXPECT_TRUE(bench::flippedClaims(rankedFigures()).empty());
}

TEST(HeadlineClaims, NamesTheOneFlippedDirection)
{
    // DD+RO overtakes DH on Fig. 4 time: only H6's DD+RO row flips.
    bench::FigureResults figures = rankedFigures();
    for (WorkloadResults &wr : figures["fig4_local_sync"])
        wr.runs[bench::columnOf(figures["fig4_local_sync"], "DD+RO")]
            .cycles = 0;
    std::vector<std::string> flipped = bench::flippedClaims(figures);
    ASSERT_EQ(flipped.size(), 1u);
    EXPECT_EQ(flipped[0], "H6: Fig4a average DH 20.00% is not below "
                          "DD+RO 0.00%");
}

TEST(HeadlineClaims, FlippedTrafficNamesItsFigurePart)
{
    // GD carries less Fig. 3 traffic than DD: H2's traffic row flips,
    // its time and energy rows hold.
    bench::FigureResults figures = rankedFigures();
    for (WorkloadResults &wr : figures["fig3_global_sync"])
        wr.runs[0].trafficTotal = 2;
    std::vector<std::string> flipped = bench::flippedClaims(figures);
    ASSERT_EQ(flipped.size(), 1u);
    EXPECT_EQ(flipped[0], "H2: Fig3c average DD 200.00% is not below "
                          "GD 100.00%");
}

// ---------------------------------------------------------------------
// App model invariants
// ---------------------------------------------------------------------

namespace
{

void
expectAppPasses(Workload &workload,
                ProtocolConfig proto = ProtocolConfig::dd())
{
    SystemConfig config;
    config.protocol = proto;
    System system(config);
    RunResult result = system.run(workload);
    ASSERT_TRUE(result.ok()) << workload.name() << ": "
                             << result.checkFailures.front();
}

} // namespace

TEST(AppModels, BackpropMatchesHostAtOddSizes)
{
    Backprop bp(96, 40); // not multiples of the CU count
    expectAppPasses(bp);
}

TEST(AppModels, PathfinderMatchesHostAtOddWidth)
{
    Pathfinder pf(1000, 5); // width not divisible by 16 TBs
    expectAppPasses(pf);
}

TEST(AppModels, LudRotatedSlicesCoverEveryRow)
{
    // The per-step block-cyclic rotation must still cover every
    // trailing row exactly once; the functional check would fail on
    // any gap or overlap.
    Lud lud(64, 17);
    expectAppPasses(lud);
}

TEST(AppModels, NwWavefrontCoversEveryBlock)
{
    Nw nw(64, 8);
    expectAppPasses(nw);
}

TEST(AppModels, SgemmTiledMatchesHost)
{
    Sgemm sgemm(64, 16);
    expectAppPasses(sgemm);
}

TEST(AppModels, StencilDoubleBufferParity)
{
    // Odd iteration count lands the result in the other buffer.
    Stencil st(32, 3);
    expectAppPasses(st);
}

TEST(AppModels, HotspotUsesPowerMap)
{
    Hotspot hs(32, 3);
    expectAppPasses(hs);
}

TEST(AppModels, SradTwoPhaseIterations)
{
    Srad srad(32, 3);
    expectAppPasses(srad);
}

TEST(AppModels, NnHandlesUnevenSlices)
{
    Nn nn(1000, 7);
    expectAppPasses(nn);
}

TEST(AppModels, LavaSmallBoxGrid)
{
    LavaMd lava(2, 6);
    expectAppPasses(lava);
}

TEST(AppModels, LavaOverflowsStoreBufferOnGpu)
{
    // The defining LavaMD behaviour: per-CU force footprint exceeds
    // the store buffer, forcing overflow drains under GPU coherence.
    LavaMd lava(4, 20);
    SystemConfig config;
    config.protocol = ProtocolConfig::gd();
    System system(config);
    RunResult result = system.run(lava);
    ASSERT_TRUE(result.ok());
    double drains = 0;
    for (unsigned cu = 0; cu < system.numCus(); ++cu) {
        drains += system.stats()
                      .find("l1." + std::to_string(cu) +
                            ".sb_overflow_drains")
                      ->value();
    }
    EXPECT_GT(drains, 0.0);
}

TEST(AppModels, ReadOnlyRegionsDeclaredByApps)
{
    // Apps with read-only inputs must declare them (DD+RO depends on
    // it): run each on DD+RO and verify region-preserved words.
    for (const char *name : {"NN", "NW", "SGEMM", "LAVA"}) {
        auto workload = makeScaled(name, 10);
        SystemConfig config;
        config.protocol = ProtocolConfig::ddro();
        System system(config);
        RunResult result = system.run(*workload);
        ASSERT_TRUE(result.ok()) << name;
        EXPECT_FALSE(system.regions().empty()) << name;
    }
}

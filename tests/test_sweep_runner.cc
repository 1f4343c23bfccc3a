/**
 * @file
 * Tests for the parallel sweep runner: full index coverage, job-index
 * result ordering, and — the property every figure depends on — that
 * a parallel sweep of real simulations is bitwise identical to the
 * serial run — plus the harnesses' shared flag table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_util.hh"
#include "core/system.hh"
#include "runner/bench_json.hh"
#include "runner/json_writer.hh"
#include "runner/sweep_runner.hh"
#include "workloads/registry.hh"

using namespace nosync;

TEST(SweepRunner, CoversEveryIndexExactlyOnce)
{
    SweepRunner runner(8);
    constexpr std::size_t kJobs = 100;
    std::vector<std::atomic<int>> hits(kJobs);
    runner.forEach(kJobs, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SweepRunner, MapReturnsResultsInJobIndexOrder)
{
    SweepRunner runner(8);
    auto out = runner.map(64, [](std::size_t i) { return 3 * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i);
}

TEST(SweepRunner, SerialRunnerExecutesInline)
{
    SweepRunner runner(1);
    std::vector<std::size_t> order;
    runner.forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepRunner, ResolveJobsMapsZeroToHardware)
{
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3u);
}

namespace
{

RunResult
runCell(const char *workload_name, const ProtocolConfig &proto)
{
    auto workload = makeScaled(workload_name, 10);
    SystemConfig config;
    config.protocol = proto;
    System system(config);
    return system.run(*workload);
}

/**
 * All simulated (deterministic) fields. Host-side timing lives in
 * RunResult::host and is excluded by construction — nothing here
 * reaches into that struct.
 */
void
expectSameSimResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.energyTotal, b.energyTotal);
    EXPECT_EQ(a.traffic, b.traffic);
    EXPECT_EQ(a.trafficTotal, b.trafficTotal);
    EXPECT_EQ(a.checkFailures, b.checkFailures);
}

} // namespace

TEST(SweepRunner, ParallelSimulationSweepMatchesSerialBitwise)
{
    // The exact property the figures depend on: an 8-thread sweep of
    // real simulations must reproduce the serial results bit for bit,
    // in the same aggregation order.
    struct Cell
    {
        const char *workload;
        ProtocolConfig proto;
    };
    std::vector<Cell> cells;
    for (const char *name : {"NN", "FAM_G", "SS_L"}) {
        for (const auto &proto :
             {ProtocolConfig::gd(), ProtocolConfig::dd()})
            cells.push_back(Cell{name, proto});
    }

    SweepRunner serial(1);
    auto golden = serial.map(cells.size(), [&](std::size_t i) {
        return runCell(cells[i].workload, cells[i].proto);
    });

    SweepRunner parallel(8);
    auto out = parallel.map(cells.size(), [&](std::size_t i) {
        return runCell(cells[i].workload, cells[i].proto);
    });

    ASSERT_EQ(out.size(), golden.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        SCOPED_TRACE(golden[i].workload + " on " + golden[i].config);
        expectSameSimResult(out[i], golden[i]);
    }
}

TEST(JsonWriter, EscapesAndNests)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("name").value(std::string("a\"b\\c\n"));
    json.key("n").value(std::uint64_t{42});
    json.key("list").beginArray();
    json.value(1.5);
    json.value(true);
    json.endArray();
    json.endObject();
    EXPECT_EQ(os.str(),
              "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":42,"
              "\"list\":[1.5,true]}");
}

TEST(SweepRecord, WritesParseableRecord)
{
    SweepRecord record;
    record.harness = "test";
    record.jobs = 2;
    record.wallMillis = 12.5;
    RunResult r;
    r.workload = "NN";
    r.config = "DD";
    r.cycles = 1000;
    r.energyTotal = 5.0;
    r.trafficTotal = 7.0;
    r.host.millis = 2.0;
    r.host.eventsExecuted = 400;
    CellSpec spec;
    spec.workload = "NN";
    spec.scale = 10;
    spec.faultSeed = 0xc0ffee;
    record.cells.push_back(SweepCell{spec, r});

    std::string path = testing::TempDir() + "sweep_record.json";
    ASSERT_TRUE(record.writeJson(path));

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"harness\":\"test\""), std::string::npos);
    EXPECT_NE(text.find("\"jobs\":2"), std::string::npos);
    EXPECT_NE(text.find("\"workload\":\"NN\""), std::string::npos);
    EXPECT_NE(text.find("\"cell\":\"NN DD scale=10 "
                        "fault_seed=12648430\""),
              std::string::npos);
    EXPECT_NE(text.find("\"scale_percent\":10"), std::string::npos);
    EXPECT_NE(text.find("\"fault_seed\":12648430"),
              std::string::npos);
    EXPECT_NE(text.find("\"cycles\":1000"), std::string::npos);
    EXPECT_NE(text.find("\"events\":400"), std::string::npos);
}

TEST(HarnessFlagsDeathTest, SimThreadsIsAnUnknownOption)
{
    // In-run parallel simulation was removed; its old flag must fail
    // like any typo rather than silently run something else.
    const char *argv[] = {"harness", "--sim-threads=4"};
    EXPECT_EXIT(bench::Options::parse(
                    2, const_cast<char **>(argv),
                    bench::cellFlags({bench::flag::devices})),
                ::testing::ExitedWithCode(2),
                "unknown option --sim-threads=4");
}

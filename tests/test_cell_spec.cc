/**
 * @file
 * CellSpec: the one-line cell every harness records and run_benchmark
 * re-runs. Its line must round-trip every field, omit defaults, and
 * refuse anything it cannot read exactly.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "matrices.hh"
#include "runner/cell_spec.hh"
#include "test_util.hh"

using namespace nosync;

namespace
{

/** fromLine's complaint about @p line; "" if it parses. */
std::string
rejection(const std::string &line)
{
    try {
        CellSpec::fromLine(line);
    } catch (const std::invalid_argument &err) {
        return err.what();
    }
    return "";
}

} // namespace

TEST(CellSpec, EveryFieldRoundTripsOffItsDefault)
{
    CellSpec cell;
    cell.workload = "SS_L";
    cell.column = ProtocolConfig::ddro();
    cell.scale = 20;
    cell.mesh = 6;
    cell.devices = 2;
    cell.storeBuffer = 32;
    cell.hop = 12;
    cell.raceCheck = true;
    cell.trace = true;
    cell.maxCycles = 500;
    cell.faultSeed = 12649407;
    cell.checkPeriod = 2000;

    std::string line = cell.toLine();
    EXPECT_EQ(line, "SS_L DD+RO scale=20 mesh=6 devices=2 sb=32 hop=12 "
                    "race=1 trace=1 max_cycles=500 fault_seed=12649407 "
                    "check_period=2000");
    EXPECT_EQ(CellSpec::fromLine(line), cell);
}

TEST(CellSpec, DefaultsAreOmittedAndKeysReadInAnyOrder)
{
    CellSpec cell;
    cell.workload = "FAM_G";
    EXPECT_EQ(cell.toLine(), "FAM_G DD");
    EXPECT_EQ(CellSpec::fromLine("FAM_G DD"), cell);
    // A key written at its default value is the same cell.
    EXPECT_EQ(CellSpec::fromLine("FAM_G DD scale=100 hop=3"), cell);
    EXPECT_EQ(CellSpec::fromLine("FAM_G GD hop=6 scale=20").toLine(),
              "FAM_G GD scale=20 hop=6");
}

TEST(CellSpec, ConfigBuildsTheMachine)
{
    CellSpec cell = CellSpec::fromLine(
        "FAM_G GH mesh=12 devices=2 sb=64 hop=6 race=1 trace=1 "
        "max_cycles=500 fault_seed=9 check_period=7");
    SystemConfig config = cell.config();
    EXPECT_EQ(config.protocol, ProtocolConfig::gh());
    EXPECT_EQ(config.topology.mesh.width, 12u);
    EXPECT_EQ(config.topology.mesh.height, 12u);
    EXPECT_EQ(config.topology.cusPerDevice, 143u);
    EXPECT_EQ(config.topology.devices, 2u);
    EXPECT_EQ(config.geometry.storeBufferEntries, 64u);
    EXPECT_EQ(config.topology.mesh.hopLatency, 6u);
    EXPECT_TRUE(config.checking.raceCheckEnabled);
    EXPECT_TRUE(config.observability.traceEnabled);
    EXPECT_EQ(config.execution.maxCycles, 500u);
    EXPECT_EQ(config.execution.faultSeed, 9u);
    EXPECT_EQ(config.checking.checkPeriod, 7u);

    // The default cell is the default machine: 4x4, 15 CUs, no faults.
    SystemConfig plain = CellSpec::fromLine("NN GD").config();
    SystemConfig reference;
    EXPECT_EQ(plain.topology.cusPerDevice, reference.topology.cusPerDevice);
    EXPECT_EQ(plain.topology.mesh.width, reference.topology.mesh.width);
    EXPECT_EQ(plain.execution.maxCycles, reference.execution.maxCycles);
    EXPECT_EQ(plain.execution.faultSeed, 0u);
}

TEST(CellSpec, FromLineNamesWhatItRejects)
{
    EXPECT_EQ(rejection("FAM_G DD stats=1"),
              "cell 'FAM_G DD stats=1': unknown key 'stats'");
    EXPECT_EQ(rejection("FAM_G DD hop=6 hop=6"),
              "cell 'FAM_G DD hop=6 hop=6': repeated key 'hop'");
    EXPECT_NE(rejection("FAM_G DD max_cycles=-1").find("got '-1'"),
              std::string::npos);
    EXPECT_NE(rejection("FAM_G DD devices=5x").find("got '5x'"),
              std::string::npos);
    // Words are split at spaces, so "scale= 3" is an empty scale.
    EXPECT_NE(rejection("FAM_G DD scale= 3").find("got ''"),
              std::string::npos);
    EXPECT_EQ(rejection("FAM_G DD scale=0"),
              "cell 'FAM_G DD scale=0': scale expects a number in "
              "[1, 100], got '0'");
    EXPECT_NE(rejection("FAM_G DD scale=101").find("got '101'"),
              std::string::npos);
    EXPECT_NE(rejection("FAM_X DD").find("unknown workload 'FAM_X'"),
              std::string::npos);
    EXPECT_NE(rejection("FAM_G DX").find("unknown column 'DX'"),
              std::string::npos);
    EXPECT_NE(rejection("FAM_G").find("expected <workload> <column>"),
              std::string::npos);
    EXPECT_NE(rejection("FAM_G DD scale").find("scale expects"),
              std::string::npos);
    // A machine validate() refuses: two 181x181 meshes.
    EXPECT_NE(rejection("FAM_G DD mesh=181 devices=2").find("32766"),
              std::string::npos);
}

TEST(CellSpec, ParseDecimalIsDigitsOnlyInRange)
{
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("18446744073709551615"), ~0ull);
    EXPECT_EQ(parseDecimal("7", 7, 7), 7u);
    for (const char *bad : {"", "-1", "+3", " 3", "3 ", "5x", "0x10",
                            "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseDecimal("6", 7, 9).has_value());
    EXPECT_FALSE(parseDecimal("10", 7, 9).has_value());
}

TEST(CellSpec, MachinesAreCellFields)
{
    bench::Options opts;
    opts.cell.scale = 10;
    CellSpec base = opts.cellOf("FAM_G", ProtocolConfig::gd());
    EXPECT_EQ(bench::meshTiers().back().cell(base).toLine(),
              "FAM_G GD scale=10 mesh=12");
    EXPECT_EQ(bench::deviceTiers().front().cell(base).toLine(),
              "FAM_G GD scale=10 devices=2 trace=1");
    EXPECT_EQ(bench::matrix("race_sweep").machines.front().cell(base)
                  .toLine(),
              "FAM_G GD scale=10 race=1");
}

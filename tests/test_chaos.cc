/**
 * @file
 * Fault-injection harness tests: synchronization primitives complete
 * under injected network faults, faulted runs are deterministic and
 * functionally equivalent to fault-free golden runs, same-pair FIFO
 * survives injection, hangs produce structured reports, and the
 * ProtocolChecker actually catches corrupted protocol state.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/protocol_checker.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "noc/fault_injector.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

SystemConfig
faultedConfig(const ProtocolConfig &proto, std::uint64_t fault_seed)
{
    SystemConfig config;
    config.protocol = proto;
    config.checking.checkPeriod = 1000;
    config.execution.faultSeed = fault_seed;
    return config;
}

RunResult
runWorkload(const std::string &name, const ProtocolConfig &proto,
            std::uint64_t fault_seed)
{
    auto workload = makeScaled(name, 10);
    System system(faultedConfig(proto, fault_seed));
    return system.run(*workload);
}

class ChaosRun : public ::testing::TestWithParam<ProtocolConfig>
{
};

} // namespace

// Mutex, semaphore, and barrier workloads must complete and pass all
// invariant sweeps under several fault seeds.
TEST_P(ChaosRun, SyncPrimitivesCompleteUnderFaults)
{
    for (const char *name : {"FAM_G", "SPM_G", "TB_LG"}) {
        for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
            RunResult result = runWorkload(name, GetParam(), seed);
            EXPECT_TRUE(result.ok())
                << name << " on " << GetParam().shortName()
                << " fault-seed " << seed << ": "
                << (result.checkFailures.empty()
                        ? "?"
                        : result.checkFailures.front());
            EXPECT_FALSE(result.hang.has_value());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, ChaosRun,
                         ::testing::Values(ProtocolConfig::dd(),
                                           ProtocolConfig::gd()),
                         ConfigName{});

// A faulted run's final memory image must match a fault-free golden
// execution of the same workload.
TEST(ChaosGolden, FaultedRunMatchesGoldenMemory)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::dd(), ProtocolConfig::gd()}) {
        auto golden_wl = makeScaled("FAM_G", 10);
        System golden(faultedConfig(proto, 0));
        ASSERT_TRUE(golden.run(*golden_wl).ok());

        auto faulted_wl = makeScaled("FAM_G", 10);
        System faulted(faultedConfig(proto, 1234));
        ASSERT_TRUE(faulted.run(*faulted_wl).ok());
        ASSERT_NE(faulted.faults(), nullptr);
        EXPECT_GT(faulted.faults()->jittered(), 0u);

        auto diffs = ProtocolChecker::compareMemory(faulted, golden);
        EXPECT_TRUE(diffs.empty())
            << proto.shortName() << ": " << diffs.front();
    }
}

// The same (workload, config, fault seed) triple must replay to the
// exact same cycle count, energy, and traffic.
TEST(ChaosGolden, IdenticalSeedsReproduceExactly)
{
    RunResult a = runWorkload("FAM_G", ProtocolConfig::dd(), 777);
    RunResult b = runWorkload("FAM_G", ProtocolConfig::dd(), 777);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energyTotal, b.energyTotal);
    EXPECT_DOUBLE_EQ(a.trafficTotal, b.trafficTotal);

    RunResult c = runWorkload("FAM_G", ProtocolConfig::dd(), 778);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(a.cycles, c.cycles) << "different fault seeds should "
                                     "perturb timing differently";
}

// Fault injection must preserve per-(src, dst) FIFO delivery: the
// protocols rely on it, so the injector only reorders across pairs.
// Both perturbations fire on the pair, so the floor is what holds the
// order.
TEST(ChaosMesh, SamePairFifoSurvivesInjection)
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh(eq, stats);

    FaultInjector faults(99);
    mesh.setDeliveryPolicy(&faults);

    std::vector<unsigned> order;
    for (unsigned i = 0; i < 200; ++i) {
        mesh.send(0, 15, 2, TrafficClass::Read,
                  [&order, i] { order.push_back(i); });
    }
    eq.run();

    ASSERT_EQ(order.size(), 200u);
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_EQ(order[i], i) << "same-pair delivery reordered";
    EXPECT_GT(faults.jittered(), 0u);
    EXPECT_GT(faults.delayed(), 0u);
}

// A run that trips the cycle watchdog must yield a structured hang
// report with the reproduction seed, and still account its partial
// traffic and energy.
TEST(ChaosHang, WatchdogProducesStructuredReport)
{
    ScopedLeakTolerance tolerate_abandoned_coroutines;
    auto workload = makeScaled("FAM_G", 10);
    SystemConfig config = faultedConfig(ProtocolConfig::dd(), 42);
    config.execution.maxCycles = 5000;
    System system(config);
    RunResult result = system.run(*workload);

    ASSERT_FALSE(result.ok());
    ASSERT_TRUE(result.hang.has_value());
    EXPECT_NE(result.hang->reason.find("watchdog"), std::string::npos);
    EXPECT_EQ(result.hang->faultSeed, 42u);
    EXPECT_FALSE(result.hang->tbWaits.empty())
        << "incomplete thread blocks should report wait states";

    std::string rendered = renderHangReport(*result.hang);
    EXPECT_NE(rendered.find("HANG REPORT"), std::string::npos);
    EXPECT_NE(rendered.find("fault-seed=42"), std::string::npos);
    EXPECT_NE(rendered.find("thread blocks"), std::string::npos);

    // Satellite: the hung run still reports partial metrics.
    EXPECT_GT(result.trafficTotal, 0.0);
    EXPECT_GT(result.energyTotal, 0.0);
}

// ---------------------------------------------------------------------
// ProtocolChecker regression: intentionally corrupted protocol state
// must be caught.
// ---------------------------------------------------------------------

TEST(ChaosChecker, CleanSystemSweepsClean)
{
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    ProtocolChecker checker(system);
    EXPECT_TRUE(checker.sweepRacy().empty());
    EXPECT_TRUE(checker.sweepQuiesced().empty());
}

TEST(ChaosChecker, CatchesDoubleRegistration)
{
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    Addr addr = 0x10000;
    as<DenovoL1Cache>(system.l1(0))->debugCorruptWordState(addr,
                                              WordState::Registered);
    as<DenovoL1Cache>(system.l1(1))->debugCorruptWordState(addr,
                                              WordState::Registered);

    auto violations = ProtocolChecker(system).sweepRacy();
    ASSERT_FALSE(violations.empty())
        << "two L1s owning one word must be flagged";
    bool found = false;
    for (const auto &v : violations)
        found |= v.find("registered in 2 L1s") != std::string::npos;
    EXPECT_TRUE(found) << violations.front();
}

TEST(ChaosChecker, ReportsOwnersInWordThenCuOrder)
{
    // Owners corrupted in neither word nor cu order: the report lists
    // words in ascending address order, each with its cus ascending.
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    for (auto [cu, addr] : {std::pair<unsigned, Addr>{5, 0x10040},
                            {2, 0x10000},
                            {1, 0x10040},
                            {3, 0x10040},
                            {0, 0x10000}}) {
        as<DenovoL1Cache>(system.l1(cu))->debugCorruptWordState(
            addr, WordState::Registered);
    }

    std::vector<std::string> doubles;
    for (const auto &v : ProtocolChecker(system).sweepRacy()) {
        if (v.find("simultaneously") != std::string::npos)
            doubles.push_back(v);
    }
    EXPECT_EQ(doubles,
              (std::vector<std::string>{
                  "word 0x10000 registered in 2 L1s simultaneously "
                  "(cus: 0 2)",
                  "word 0x10040 registered in 3 L1s simultaneously "
                  "(cus: 1 3 5)"}));
}

TEST(ChaosChecker, CatchesBogusRegistryOwner)
{
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    Addr addr = 0x10000; // line 0x10000 homes at bank 0
    as<DenovoL2Bank>(system.l2Bank(0))->debugSetOwner(addr, 120);

    auto violations = ProtocolChecker(system).sweepRacy();
    ASSERT_FALSE(violations.empty())
        << "registry entry pointing at a dead L1 must be flagged";
    bool found = false;
    for (const auto &v : violations)
        found |= v.find("invalid node") != std::string::npos;
    EXPECT_TRUE(found) << violations.front();
}

TEST(ChaosChecker, CatchesRegistryL1Disagreement)
{
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    Addr addr = 0x10000;
    // Registry claims cu 0 owns the word, but cu 0's L1 does not.
    as<DenovoL2Bank>(system.l2Bank(0))->debugSetOwner(addr, 0);

    ProtocolChecker checker(system);
    // Legal mid-run (the L2 records the new owner before the L1's
    // registration completes), so the racy sweep must stay quiet...
    EXPECT_TRUE(checker.sweepRacy().empty());
    // ...but at quiesce the books must balance.
    auto violations = checker.sweepQuiesced();
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const auto &v : violations)
        found |= v.find("does not hold it registered") !=
                 std::string::npos;
    EXPECT_TRUE(found) << violations.front();
}

TEST(ChaosChecker, CatchesLeakedStateAtQuiesce)
{
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    // A registered word in an L1 that the registry knows nothing
    // about is both an agreement violation and, symmetrically, the
    // L1-side "leak" shape the quiesce sweep exists for.
    Addr addr = 0x10040;
    as<DenovoL1Cache>(system.l1(2))->debugCorruptWordState(addr,
                                              WordState::Registered);

    auto violations = ProtocolChecker(system).sweepQuiesced();
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const auto &v : violations)
        found |= v.find("registry names") != std::string::npos;
    EXPECT_TRUE(found) << violations.front();
}

// An end-to-end mutation check: corrupt state *after* a real run and
// verify the quiesce sweep that System::run would perform reports it.
TEST(ChaosChecker, CorruptionAfterRealRunIsCaught)
{
    auto workload = makeScaled("FAM_G", 10);
    System system(faultedConfig(ProtocolConfig::dd(), 0));
    ASSERT_TRUE(system.run(*workload).ok());

    as<DenovoL1Cache>(system.l1(0))->debugCorruptWordState(0x10000,
                                              WordState::Registered);
    as<DenovoL1Cache>(system.l1(3))->debugCorruptWordState(0x10000,
                                              WordState::Registered);
    EXPECT_FALSE(ProtocolChecker(system).sweepRacy().empty());
}

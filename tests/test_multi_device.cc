/**
 * @file
 * Multi-device machines: topology validation, the inter-device link
 * (latency, bandwidth, FIFO ordering, fault injection), device-scope
 * synchronization (well-scoped vs mis-scoped litmus), the DD+SE
 * memory-side sync engine, and run-to-run determinism at D >= 2.
 */

#include <gtest/gtest.h>

#include "analysis/race_detector.hh"
#include "coherence/denovo_l2.hh"
#include "noc/mesh.hh"
#include "noc/topology.hh"
#include "sim/stats.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/** Two small 2x2-mesh devices joined by a 10-cycle, 2-cycle/flit
 *  link: big enough to route across, small enough to reason about. */
MachineTopology
twoSmallDevices()
{
    MachineTopology topo;
    topo.devices = 2;
    topo.mesh.width = 2;
    topo.mesh.height = 2;
    topo.cusPerDevice = 3;
    topo.link.latency = 10;
    topo.link.cyclesPerFlit = 2;
    return topo;
}

/** Join a run's failure strings for assertion messages. */
std::string
failures(const RunResult &result)
{
    std::string out;
    for (const auto &f : result.checkFailures)
        out += f + "\n";
    if (result.hang)
        out += "hang\n";
    return out;
}

SystemConfig
smallMachine(const ProtocolConfig &proto)
{
    SystemConfig config;
    config.protocol = proto;
    config.topology = twoSmallDevices();
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// Topology / config validation
// ---------------------------------------------------------------------

TEST(TopologyValidation, DefaultIsValid)
{
    EXPECT_EQ(SystemConfig{}.validate(), "");
    EXPECT_EQ(smallMachine(ProtocolConfig::dd()).validate(), "");
}

TEST(TopologyValidation, RejectsBadDeviceCounts)
{
    SystemConfig config;
    config.topology.devices = 0;
    EXPECT_NE(config.validate(), "");
    config.topology.devices = 65;
    EXPECT_NE(config.validate(), "");
    config.topology.devices = 64;
    EXPECT_EQ(config.validate(), "");
}

TEST(TopologyValidation, RejectsMeshWithoutGatewayRoom)
{
    SystemConfig config;
    config.topology.cusPerDevice = 0;
    EXPECT_NE(config.validate(), "");
    // Every node a CU leaves no room for the CPU/gateway core.
    config.topology.cusPerDevice = 16;
    EXPECT_NE(config.validate(), "");
    config.topology.cusPerDevice = 15;
    EXPECT_EQ(config.validate(), "");
}

TEST(TopologyValidation, RejectsOwnerIdOverflow)
{
    // 64 devices x 24x24 nodes = 36864 > 32766 (int16_t owner ids).
    SystemConfig config;
    config.topology.devices = 64;
    config.topology.mesh.width = 24;
    config.topology.mesh.height = 24;
    config.topology.cusPerDevice = 1;
    EXPECT_NE(config.validate(), "");
}

TEST(TopologyValidation, AcceptsLinkFasterThanMeshHop)
{
    SystemConfig config = smallMachine(ProtocolConfig::dd());
    config.topology.link.latency = 2; // hopLatency is 3
    EXPECT_EQ(config.validate(), "");
    config.topology.link.cyclesPerFlit = 0;
    EXPECT_NE(config.validate(), "");
}

TEST(TopologyValidation, RejectsSimThreads)
{
    // In-run parallel simulation was removed; the field only survives
    // for an old caller and must stay 0.
    SystemConfig config;
    config.execution.simThreads = 1;
    EXPECT_NE(config.validate().find("removed"), std::string::npos);
}

TEST(TopologyValidation, SingleDeviceIgnoresLinkRules)
{
    // The link is unused at D=1, so its parameters can't invalidate.
    SystemConfig config;
    config.topology.link.latency = 0;
    config.topology.link.cyclesPerFlit = 0;
    EXPECT_EQ(config.validate(), "");
}

TEST(TopologyValidation, NodeMapIsDeviceMajor)
{
    MachineTopology topo = twoSmallDevices();
    EXPECT_EQ(topo.numNodes(), 8u);
    EXPECT_EQ(topo.totalCus(), 6u);
    EXPECT_EQ(topo.gatewayNode(0), 3);
    EXPECT_EQ(topo.gatewayNode(1), 7);
    EXPECT_EQ(topo.nodeOfCu(0), 0);
    EXPECT_EQ(topo.nodeOfCu(2), 2);
    EXPECT_EQ(topo.nodeOfCu(3), 4); // device 1's first CU
    EXPECT_EQ(topo.deviceOf(3), 0u);
    EXPECT_EQ(topo.deviceOf(4), 1u);
    EXPECT_EQ(topo.deviceOfCu(5), 1u);
}

// ---------------------------------------------------------------------
// Inter-device link
// ---------------------------------------------------------------------

namespace
{

struct LinkFixture : public ::testing::Test
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh{eq, stats, twoSmallDevices()};
};

} // namespace

TEST_F(LinkFixture, CrossDeviceLatencyMatchesDelivery)
{
    Tick arrival = 0;
    mesh.send(0, 4, 2, TrafficClass::Read, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, mesh.uncontendedLatency(0, 4, 2));
}

TEST_F(LinkFixture, CrossDeviceRouteIsLocalPlusLinkPlusLocal)
{
    // Node 0 -> gateway 3, the pair link, gateway 7 -> node 4. The
    // link leg costs latency + flits * cyclesPerFlit = 10 + 2f.
    for (unsigned flits = 1; flits <= 5; ++flits) {
        EXPECT_EQ(mesh.uncontendedLatency(0, 4, flits),
                  mesh.uncontendedLatency(0, 3, flits) +
                      (10 + 2 * static_cast<Tick>(flits)) +
                      mesh.uncontendedLatency(7, 4, flits));
    }
}

TEST_F(LinkFixture, IntraDeviceRoutesMirrorEachOther)
{
    // Device 1's local mesh is a copy of device 0's.
    EXPECT_EQ(mesh.uncontendedLatency(4, 7, 3),
              mesh.uncontendedLatency(0, 3, 3));
    EXPECT_EQ(mesh.hops(4, 7), mesh.hops(0, 3));
}

TEST_F(LinkFixture, LinkSerializesAtCyclesPerFlit)
{
    // Two 4-flit messages over the same pair link: the second waits
    // for the first to clear the link at 2 cycles/flit.
    Tick first = 0, second = 0;
    mesh.send(0, 4, 4, TrafficClass::Read, [&] { first = eq.now(); });
    mesh.send(0, 4, 4, TrafficClass::Read, [&] { second = eq.now(); });
    eq.run();
    EXPECT_GE(second - first, static_cast<Tick>(4 * 2));
}

TEST_F(LinkFixture, CrossDeviceFifoOrderingHolds)
{
    // Same-src/same-dst FIFO must hold across the link too, even for
    // mixed message sizes (large then small).
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        mesh.send(0, 4, 5, TrafficClass::Read,
                  [&order, i] { order.push_back(2 * i); });
        mesh.send(0, 4, 1, TrafficClass::Atomic,
                  [&order, i] { order.push_back(2 * i + 1); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(LinkFixture, DevicesDoNotContendInternally)
{
    // Local traffic inside device 0 and device 1 uses disjoint links.
    Tick a = 0, b = 0;
    mesh.send(0, 1, 1, TrafficClass::Read, [&] { a = eq.now(); });
    mesh.send(4, 5, 1, TrafficClass::Read, [&] { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, b);
}

TEST_F(LinkFixture, DirectionsAreIndependentLinks)
{
    // 0->1 and 1->0 device pair links are distinct; opposite-direction
    // crossings do not serialize against each other.
    Tick fwd = 0, rev = 0;
    mesh.send(0, 4, 4, TrafficClass::Read, [&] { fwd = eq.now(); });
    mesh.send(4, 0, 4, TrafficClass::Read, [&] { rev = eq.now(); });
    eq.run();
    EXPECT_EQ(fwd, rev);
}

// ---------------------------------------------------------------------
// Device-addressed component access
// ---------------------------------------------------------------------

TEST(DeviceView, AddressesPerDeviceSlices)
{
    SystemConfig config = smallMachine(ProtocolConfig::dd());
    System sys(config);
    ASSERT_EQ(sys.numDevices(), 2u);
    ASSERT_EQ(sys.numCus(), 6u);
    for (unsigned d = 0; d < 2; ++d) {
        System::DeviceView dev = sys.device(d);
        EXPECT_EQ(dev.index(), d);
        EXPECT_EQ(dev.numCus(), 3u);
        EXPECT_EQ(dev.numL2Banks(), 4u);
        EXPECT_EQ(dev.gatewayNode(),
                  config.topology.gatewayNode(d));
        for (unsigned cu = 0; cu < dev.numCus(); ++cu)
            EXPECT_EQ(&dev.l1(cu), &sys.l1(d * 3 + cu));
        for (unsigned bank = 0; bank < dev.numL2Banks(); ++bank)
            EXPECT_EQ(&dev.l2Bank(bank), &sys.l2Bank(d * 4 + bank));
    }
}

TEST(DeviceView, SingleDeviceViewIsWholeMachine)
{
    SystemConfig config;
    config.protocol = ProtocolConfig::gd();
    System sys(config);
    System::DeviceView dev = sys.device(0);
    EXPECT_EQ(dev.numCus(), sys.numCus());
    EXPECT_EQ(&dev.l1(0), &sys.l1(0));
}

TEST(DeviceView, InvalidConfigIsRefused)
{
    SystemConfig config;
    config.topology.cusPerDevice = 16; // no gateway room
    EXPECT_DEATH({ System sys(config); }, "gateway");
}

// ---------------------------------------------------------------------
// Whole-machine runs across devices
// ---------------------------------------------------------------------

namespace
{

class MultiDeviceRun : public ::testing::TestWithParam<ProtocolConfig>
{
};

} // namespace

TEST_P(MultiDeviceRun, GlobalSyncWorkloadPassesChecks)
{
    auto workload = makeScaled("FAM_G", 30);
    SystemConfig config = smallMachine(GetParam());
    config.checking.raceCheckEnabled = true;
    System sys(config);
    RunResult result = sys.run(*workload);
    EXPECT_TRUE(result.ok()) << result.workload << " on "
                             << result.config << "\n"
                             << failures(result);
    EXPECT_EQ(result.races.racesDetected, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, MultiDeviceRun,
                         ::testing::Values(ProtocolConfig::gd(),
                                           ProtocolConfig::gh(),
                                           ProtocolConfig::dd(),
                                           ProtocolConfig::ddro(),
                                           ProtocolConfig::dh(),
                                           ProtocolConfig::ddse()),
                         ConfigName());

TEST(MultiDeviceFaults, LinkSeamSurvivesFaultInjection)
{
    // Delivery-level fault injection perturbs every message arrival,
    // including inter-device crossings; the protocols must still
    // converge to the correct result.
    auto workload = makeScaled("FAM_G", 30);
    SystemConfig config = smallMachine(ProtocolConfig::dd());
    config.execution.faultSeed = 7;
    System sys(config);
    RunResult result = sys.run(*workload);
    EXPECT_TRUE(result.ok()) << failures(result);
}

TEST(MultiDeviceDeterminism, FaultedRunRepeatsBitwise)
{
    // A fault-injected two-device run is a pure function of its
    // config: a second fresh System reproduces every simulated metric
    // exactly, including the cross-device link arbitration.
    auto run_once = [] {
        auto workload = makeScaled("FAM_G", 30);
        SystemConfig config = smallMachine(ProtocolConfig::dd());
        config.execution.faultSeed = 7;
        System sys(config);
        return sys.run(*workload);
    };
    RunResult first = run_once();
    RunResult second = run_once();
    ASSERT_TRUE(first.ok()) << failures(first);
    ASSERT_TRUE(second.ok()) << failures(second);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.energy, second.energy);
    EXPECT_EQ(first.energyTotal, second.energyTotal);
    EXPECT_EQ(first.traffic, second.traffic);
    EXPECT_EQ(first.trafficTotal, second.trafficTotal);
}

// ---------------------------------------------------------------------
// Device-scope synchronization litmus
// ---------------------------------------------------------------------

namespace
{

/**
 * Message passing through a *device-scope* flag. The producer always
 * runs on device 0's CU 0; the consumer runs either on another CU of
 * device 0 (well-scoped: device scope covers both) or on device 1
 * (mis-scoped: only global scope crosses the link). The controllers
 * conservatively treat device scope like global scope, so the data
 * always arrives functionally — the mis-scoped variant is precisely
 * the bug class only the race detector can catch, as a scope race.
 */
class DeviceScopeMp : public Workload
{
  public:
    DeviceScopeMp(bool cross_device, Scope scope)
        : _crossDevice(cross_device), _scope(scope)
    {
    }

    std::string name() const override { return "litmus-device-mp"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
        _result = env.alloc(kLineBytes);
        // TB assignment is round-robin over global CUs, so TB index
        // cusPerDevice lands on device 1's first CU.
        _consumerTb = _crossDevice ? env.cusPerDevice() : 1;
    }

    KernelInfo
    kernelInfo(unsigned) const override
    {
        return {_consumerTb + 1};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 2026);
            co_await ctx.atomic(ctx.atomicStore(_flag, 1, _scope));
            co_return;
        }
        if (ctx.tbGlobal() == _consumerTb) {
            while (true) {
                std::uint32_t f = co_await ctx.atomic(
                    ctx.atomicLoad(_flag, _scope));
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
            failures.push_back("consumer read stale data (got " +
                               std::to_string(env.debugRead(_result)) +
                               ")");
        }
        return failures;
    }

  private:
    bool _crossDevice;
    Scope _scope;
    unsigned _consumerTb = 1;
    Addr _data = 0, _flag = 0, _result = 0;
};

RunResult
runDeviceLitmus(Workload &workload, const ProtocolConfig &proto)
{
    SystemConfig config = smallMachine(proto);
    config.checking.raceCheckEnabled = true;
    System sys(config);
    return sys.run(workload);
}

} // namespace

namespace
{
class DeviceScopeHrf : public ::testing::TestWithParam<ProtocolConfig>
{
};
class DeviceScopeDrf : public ::testing::TestWithParam<ProtocolConfig>
{
};
} // namespace

TEST_P(DeviceScopeHrf, WellScopedSameDeviceIsRaceFree)
{
    DeviceScopeMp workload(false, Scope::Device);
    RunResult result = runDeviceLitmus(workload, GetParam());
    EXPECT_TRUE(result.ok()) << failures(result);
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 0u);
    EXPECT_GT(result.races.hbEdges, 0u);
}

TEST_P(DeviceScopeHrf, MisscopedCrossDeviceFenceIsAScopeRace)
{
    // Device-scope release on device 0, device-scope acquire on
    // device 1: functionally delivered (conservative controllers),
    // but ordered only under the as-if-global shadow clock.
    DeviceScopeMp workload(true, Scope::Device);
    RunResult result = runDeviceLitmus(workload, GetParam());
    EXPECT_FALSE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    ASSERT_GE(result.races.racesDetected, 1u);
    for (const auto &race : result.races.races)
        EXPECT_EQ(race.kind, analysis::RaceKind::Scope);
}

TEST_P(DeviceScopeHrf, GlobalScopeCrossDeviceIsRaceFree)
{
    DeviceScopeMp workload(true, Scope::Global);
    RunResult result = runDeviceLitmus(workload, GetParam());
    EXPECT_TRUE(result.ok()) << failures(result);
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 0u);
}

INSTANTIATE_TEST_SUITE_P(HrfConfigs, DeviceScopeHrf,
                         ::testing::Values(ProtocolConfig::gh(),
                                           ProtocolConfig::dh()),
                         ConfigName());

TEST_P(DeviceScopeDrf, MisscopedFenceIsHarmlessWithoutScopes)
{
    // DRF configs ignore the scope annotation (every sync is global):
    // the paper's argument, demonstrated across the device boundary.
    DeviceScopeMp workload(true, Scope::Device);
    RunResult result = runDeviceLitmus(workload, GetParam());
    EXPECT_TRUE(result.ok()) << failures(result);
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 0u);
}

INSTANTIATE_TEST_SUITE_P(DrfConfigs, DeviceScopeDrf,
                         ::testing::Values(ProtocolConfig::gd(),
                                           ProtocolConfig::dd(),
                                           ProtocolConfig::ddro(),
                                           ProtocolConfig::ddse()),
                         ConfigName());

// ---------------------------------------------------------------------
// DD+SE memory-side sync engine
// ---------------------------------------------------------------------

namespace
{

double
sumBankStat(System &sys, const std::string &stat)
{
    double total = 0.0;
    for (unsigned bank = 0; bank < sys.numL2Banks(); ++bank) {
        const stats::Scalar *s = sys.stats().find(
            "l2b" + std::to_string(bank) + "." + stat);
        if (s)
            total += s->value();
    }
    return total;
}

} // namespace

TEST(SyncEngine, AtomicsExecuteAtTheBank)
{
    auto workload = makeScaled("FAM_G", 30);
    SystemConfig config;
    config.protocol = ProtocolConfig::ddse();
    System sys(config);
    RunResult result = sys.run(*workload);
    EXPECT_TRUE(result.ok()) << failures(result);
    // Every global-scope atomic performed at a bank's sync engine,
    // not through L1 sync-word registration.
    EXPECT_GT(sumBankStat(sys, "engine_syncs"), 0.0);
    EXPECT_EQ(sumBankStat(sys, "sync_registrations"), 0.0);
}

TEST(SyncEngine, ConfigColumnIsDistinct)
{
    ProtocolConfig ddse = ProtocolConfig::ddse();
    EXPECT_EQ(ddse.shortName(), "DD+SE");
    EXPECT_TRUE(ddse.syncEngine());
    EXPECT_FALSE(ProtocolConfig::dd().syncEngine());
}

TEST(SyncEngine, ReclaimsDataRegisteredWord)
{
    // A plain store registers the word to CU 0's L1 (DeNovo data
    // registration). A later sync-engine atomic from another CU must
    // pull the word back to the bank, perform there, and leave the
    // word bank-resident.
    SystemConfig config;
    config.protocol = ProtocolConfig::ddse();
    System sys(config);
    const Addr addr = System::kAllocBase;

    doStore(sys, 0, addr, 5);
    doDrain(sys, 0); // drain the store buffer: CU 0 registers the word

    unsigned bank = static_cast<unsigned>(
        (addr / kLineBytes) % sys.numL2Banks());
    auto *registry = as<DenovoL2Bank>(sys.l2Bank(bank));
    ASSERT_NE(registry, nullptr);
    ASSERT_NE(registry->ownerOf(addr), kNoNode);

    std::uint32_t old = doSync(
        sys, 1, makeSync(AtomicFunc::FetchAdd, addr, 3));
    EXPECT_EQ(old, 5u);

    EXPECT_EQ(registry->peekWord(addr), 8u);
    EXPECT_EQ(registry->ownerOf(addr), kNoNode);
    EXPECT_GT(sumBankStat(sys, "engine_syncs"), 0.0);
}

TEST(SyncEngine, QueuedSyncsPerformInArrivalOrder)
{
    // Two engine syncs race a registered word: both must queue behind
    // the reclaim and perform FIFO; the final value sees both.
    SystemConfig config;
    config.protocol = ProtocolConfig::ddse();
    System sys(config);
    const Addr addr = System::kAllocBase;

    doStore(sys, 0, addr, 100);
    doDrain(sys, 0);

    std::uint32_t first = 0, second = 0;
    bool done1 = false, done2 = false;
    sys.l1(1).sync(makeSync(AtomicFunc::FetchAdd, addr, 1),
                   [&](std::uint32_t v) {
                       first = v;
                       done1 = true;
                   });
    sys.l1(2).sync(makeSync(AtomicFunc::FetchAdd, addr, 10),
                   [&](std::uint32_t v) {
                       second = v;
                       done2 = true;
                   });
    drainEvents(sys);
    ASSERT_TRUE(done1 && done2);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(second, 101u);

    unsigned bank = static_cast<unsigned>(
        (addr / kLineBytes) % sys.numL2Banks());
    EXPECT_EQ(as<DenovoL2Bank>(sys.l2Bank(bank))->peekWord(addr),
              111u);
}

TEST(SyncEngine, WorksAcrossDevices)
{
    // Cross-device kernel: data written on device 0 in kernel 0 is
    // atomically accumulated from both devices in kernel 1 through
    // the home bank's sync engine.
    auto workload = makeScaled("SPM_G", 30);
    SystemConfig config = smallMachine(ProtocolConfig::ddse());
    config.checking.raceCheckEnabled = true;
    System sys(config);
    RunResult result = sys.run(*workload);
    EXPECT_TRUE(result.ok()) << failures(result);
    EXPECT_EQ(result.races.racesDetected, 0u);
    EXPECT_GT(sumBankStat(sys, "engine_syncs"), 0.0);
}

/**
 * @file
 * Unit tests for the mesh interconnect: routing distances, flit
 * accounting, link serialization, and point-to-point ordering (a
 * property several protocol races rely on).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>

#include "noc/mesh.hh"
#include "sim/stats.hh"

using namespace nosync;

namespace
{

struct MeshFixture : public ::testing::Test
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh{eq, stats};
};

} // namespace

TEST_F(MeshFixture, HopDistances)
{
    // 4x4 mesh: node ids row-major.
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 12), 3u);
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(mesh.hops(5, 6), 1u);
    EXPECT_EQ(mesh.hops(5, 10), 2u);
}

TEST_F(MeshFixture, LocalDeliveryHasNoCrossings)
{
    bool delivered = false;
    mesh.send(3, 3, 5, TrafficClass::Read, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_DOUBLE_EQ(mesh.totalFlitCrossings(), 0.0);
}

TEST_F(MeshFixture, SelfSendArrivesAfterLocalLatency)
{
    // Sent at tick 50 from every node to itself: each arrives exactly
    // kLocalLatency later, whatever its size, and crosses no link.
    std::vector<Tick> arrivals;
    eq.schedule(50, [&] {
        for (NodeId n = 0; n < 16; ++n) {
            mesh.send(n, n, 1 + n % 5, TrafficClass::WriteBack,
                      [&] { arrivals.push_back(eq.now()); });
        }
    });
    eq.run();
    ASSERT_EQ(arrivals.size(), 16u);
    for (Tick t : arrivals)
        EXPECT_EQ(t, 50 + kLocalLatency);
    EXPECT_EQ(mesh.uncontendedLatency(7, 7, 5), kLocalLatency);
    EXPECT_DOUBLE_EQ(mesh.totalFlitCrossings(), 0.0);
}

TEST_F(MeshFixture, FlitCrossingsAreFlitsTimesHops)
{
    mesh.send(0, 15, 5, TrafficClass::Read, [] {});
    eq.run();
    EXPECT_DOUBLE_EQ(mesh.flitCrossings(TrafficClass::Read),
                     5.0 * 6.0);
    EXPECT_DOUBLE_EQ(mesh.flitCrossings(TrafficClass::Atomic), 0.0);
}

TEST_F(MeshFixture, ClassesAccountedSeparately)
{
    mesh.send(0, 1, 2, TrafficClass::Atomic, [] {});
    mesh.send(0, 1, 3, TrafficClass::WriteBack, [] {});
    eq.run();
    EXPECT_DOUBLE_EQ(mesh.flitCrossings(TrafficClass::Atomic), 2.0);
    EXPECT_DOUBLE_EQ(mesh.flitCrossings(TrafficClass::WriteBack), 3.0);
    EXPECT_DOUBLE_EQ(mesh.totalFlitCrossings(), 5.0);
}

TEST_F(MeshFixture, UncontendedLatencyMatchesDelivery)
{
    Tick arrival = 0;
    mesh.send(0, 5, 1, TrafficClass::Read,
              [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, mesh.uncontendedLatency(0, 5, 1));
}

TEST_F(MeshFixture, ContentionSerializesSharedLinks)
{
    // Two single-flit messages over the same link: the second one
    // queues behind the first.
    Tick first = 0, second = 0;
    mesh.send(0, 1, 1, TrafficClass::Read, [&] { first = eq.now(); });
    mesh.send(0, 1, 1, TrafficClass::Read,
              [&] { second = eq.now(); });
    eq.run();
    EXPECT_GT(second, first);
}

TEST_F(MeshFixture, DisjointPathsDoNotContend)
{
    Tick a = 0, b = 0;
    mesh.send(0, 1, 1, TrafficClass::Read, [&] { a = eq.now(); });
    mesh.send(4, 5, 1, TrafficClass::Read, [&] { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, b);
}

TEST_F(MeshFixture, PointToPointOrderingHolds)
{
    // The protocols rely on same-src/same-dst FIFO delivery even for
    // mixed message sizes. Inject many pairs where the first message
    // is large and the second small.
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        mesh.send(0, 15, 5, TrafficClass::Read,
                  [&order, i] { order.push_back(2 * i); });
        mesh.send(0, 15, 1, TrafficClass::Atomic,
                  [&order, i] { order.push_back(2 * i + 1); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(MeshFixture, MessagesCountedPerClass)
{
    mesh.send(0, 1, 1, TrafficClass::Registration, [] {});
    mesh.send(0, 1, 1, TrafficClass::Registration, [] {});
    eq.run();
    const stats::Vector *messages = stats.findVector("noc.messages");
    ASSERT_NE(messages, nullptr);
    int regist = messages->indexOf("Regist");
    ASSERT_GE(regist, 0);
    EXPECT_DOUBLE_EQ(
        messages->value(static_cast<std::size_t>(regist)), 2.0);
}

TEST_F(MeshFixture, DeliveryCapturesSurviveRegistryGrowth)
{
    // The delivery closure runs in its event node. While it runs it
    // sends enough messages to grow the in-flight registry (and the
    // event queue) several times; its captures must stay intact.
    std::array<std::uint64_t, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
    int delivered = 0;
    std::uint64_t seen = 0;
    mesh.send(0, 15, 5, TrafficClass::Read,
              [this, &delivered, &seen, payload] {
                  for (int i = 0; i < 1000; ++i) {
                      mesh.send(3, 12, 1, TrafficClass::Read,
                                [&delivered] { ++delivered; });
                  }
                  EXPECT_EQ(mesh.inFlightCount(), 1000u);
                  for (auto v : payload)
                      seen += v;
              });
    eq.run();
    EXPECT_EQ(seen, 36u);
    EXPECT_EQ(delivered, 1000);
    EXPECT_EQ(mesh.inFlightCount(), 0u);
}

namespace
{

/**
 * Check every (src, dst) pair's hops() and uncontendedLatency()
 * against XY distances computed here from node coordinates: within a
 * device |dx| + |dy| mesh links; across devices the legs to and from
 * the gateways (each device's last node) plus the pair's link.
 */
void
expectRoutesMatchCoordinates(const MachineTopology &topo)
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh(eq, stats, topo);
    const unsigned w = topo.mesh.width;
    const unsigned per_dev = topo.nodesPerDevice();
    auto leg = [w](unsigned a, unsigned b) {
        int ax = static_cast<int>(a % w), ay = static_cast<int>(a / w);
        int bx = static_cast<int>(b % w), by = static_cast<int>(b / w);
        return static_cast<unsigned>(std::abs(ax - bx) +
                                     std::abs(ay - by));
    };
    constexpr unsigned kFlits = 5;
    const Cycles mesh_link = topo.mesh.hopLatency + kFlits;
    const Cycles pair_link =
        topo.link.latency + kFlits * topo.link.cyclesPerFlit;
    const auto n = static_cast<NodeId>(topo.numNodes());
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            unsigned sd = topo.deviceOf(src), dd = topo.deviceOf(dst);
            unsigned sl = static_cast<unsigned>(src) % per_dev;
            unsigned dl = static_cast<unsigned>(dst) % per_dev;
            unsigned hops;
            Cycles latency;
            if (src == dst) {
                hops = 0;
                latency = kLocalLatency;
            } else if (sd == dd) {
                hops = leg(sl, dl);
                latency = hops * mesh_link;
            } else {
                unsigned mesh_hops =
                    leg(sl, per_dev - 1) + leg(per_dev - 1, dl);
                hops = mesh_hops + 1;
                latency = mesh_hops * mesh_link + pair_link;
            }
            ASSERT_EQ(mesh.hops(src, dst), hops)
                << src << " -> " << dst;
            ASSERT_EQ(mesh.uncontendedLatency(src, dst, kFlits), latency)
                << src << " -> " << dst;
        }
    }
}

} // namespace

TEST(MeshRoutes, EveryPairMatchesCoordinates4x4)
{
    expectRoutesMatchCoordinates(MachineTopology{});
}

TEST(MeshRoutes, EveryPairMatchesCoordinates12x12)
{
    MeshParams params;
    params.width = params.height = 12;
    expectRoutesMatchCoordinates(MachineTopology(params));
}

TEST(MeshRoutes, EveryPairMatchesCoordinatesTwoDevices)
{
    MachineTopology topo;
    topo.devices = 2;
    expectRoutesMatchCoordinates(topo);
}

TEST(MeshRoutes, EveryPairMatchesCoordinatesThreeNonSquareDevices)
{
    // Width != height and three device pairs per direction.
    MachineTopology topo;
    topo.mesh.width = 5;
    topo.mesh.height = 3;
    topo.devices = 3;
    topo.link.latency = 17;
    topo.link.cyclesPerFlit = 2;
    expectRoutesMatchCoordinates(topo);
}

TEST(MeshTraffic, FlitsForPayload)
{
    EXPECT_EQ(flitsForPayload(0), 1u);
    EXPECT_EQ(flitsForPayload(1), 2u);
    EXPECT_EQ(flitsForPayload(16), 2u);
    EXPECT_EQ(flitsForPayload(64), 5u);
    EXPECT_EQ(flitsForWords(1), 2u);
    EXPECT_EQ(flitsForWords(16), 5u);
    EXPECT_EQ(kLineFlits, 5u);
}

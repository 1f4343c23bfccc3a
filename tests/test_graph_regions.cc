/**
 * @file
 * Per-region protocol specialization (DD+PR) and the graph workload
 * family: RegionMap policy semantics, the streaming write-through
 * path, the stale read-only-mask regression, push-vs-pull output
 * identity, run-twice identity for graph workloads, and the schema-enum
 * cross-checks that keep the tools/ JSON schemas in lockstep with
 * the simulator.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "explore/litmus.hh"
#include "test_util.hh"
#include "workloads/graph.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

SystemConfig
protoConfig(const ProtocolConfig &proto)
{
    SystemConfig config;
    config.protocol = proto;
    return config;
}

constexpr Addr kData = 0x10000;
constexpr Addr kLock = 0x20000;

} // namespace

// ---------------------------------------------------------------------
// RegionMap policies
// ---------------------------------------------------------------------

TEST(RegionPolicy, UndeclaredIsOwned)
{
    RegionMap map;
    EXPECT_EQ(map.policyAt(0x1000), RegionPolicy::Owned);
    EXPECT_EQ(map.streamingMask(0x1000), 0u);
    EXPECT_TRUE(map.validate().empty());
}

TEST(RegionPolicy, DeclareStreamingAndReadOnlySeparately)
{
    RegionMap map;
    EXPECT_TRUE(map.declare(0x1000, 0x40, RegionPolicy::ReadOnly));
    EXPECT_TRUE(map.declare(0x2000, 0x40, RegionPolicy::Streaming));
    EXPECT_TRUE(map.isReadOnly(0x1000));
    EXPECT_FALSE(map.isStreaming(0x1000));
    EXPECT_TRUE(map.isStreaming(0x2000));
    EXPECT_EQ(map.readOnlyMask(0x1000), 0xffffu);
    EXPECT_EQ(map.streamingMask(0x2000), 0xffffu);
    EXPECT_EQ(map.streamingMask(0x1000), 0u);
    EXPECT_TRUE(map.validate().empty());
}

TEST(RegionPolicy, CrossPolicyOverlapRejectedAndReported)
{
    RegionMap map;
    EXPECT_TRUE(map.declare(0x1000, 0x100, RegionPolicy::ReadOnly));
    EXPECT_FALSE(map.declare(0x1080, 0x40, RegionPolicy::Streaming));
    ASSERT_EQ(map.validate().size(), 1u);
    EXPECT_NE(map.validate()[0].find("streaming"), std::string::npos);
    EXPECT_NE(map.validate()[0].find("read-only"), std::string::npos);
    // The established range keeps its policy.
    EXPECT_EQ(map.policyAt(0x1080), RegionPolicy::ReadOnly);
    EXPECT_EQ(map.rangeCount(), 1u);
}

TEST(RegionPolicy, CrossPolicyAdjacencyLegalAndNeverMerges)
{
    RegionMap map;
    EXPECT_TRUE(map.declare(0x1000, 0x40, RegionPolicy::ReadOnly));
    EXPECT_TRUE(map.declare(0x1040, 0x40, RegionPolicy::Streaming));
    EXPECT_TRUE(map.validate().empty());
    EXPECT_EQ(map.rangeCount(), 2u);
    EXPECT_EQ(map.policyAt(0x103c), RegionPolicy::ReadOnly);
    EXPECT_EQ(map.policyAt(0x1040), RegionPolicy::Streaming);
}

TEST(RegionPolicy, LineStraddlingTwoPoliciesSplitsTheMasks)
{
    RegionMap map;
    // One 64-byte line: words 0-7 read-only, words 8-15 streaming.
    EXPECT_TRUE(map.declare(0x1000, 0x20, RegionPolicy::ReadOnly));
    EXPECT_TRUE(map.declare(0x1020, 0x20, RegionPolicy::Streaming));
    EXPECT_EQ(map.readOnlyMask(0x1000), 0x00ffu);
    EXPECT_EQ(map.streamingMask(0x1000), 0xff00u);
    EXPECT_TRUE(map.validate().empty());
}

TEST(RegionPolicy, SamePolicyOverlapStillCoalesces)
{
    RegionMap map;
    EXPECT_TRUE(map.declare(0x1000, 0x80, RegionPolicy::Streaming));
    EXPECT_TRUE(map.declare(0x1040, 0x100, RegionPolicy::Streaming));
    EXPECT_EQ(map.rangeCount(), 1u);
    EXPECT_TRUE(map.validate().empty());
    EXPECT_TRUE(map.isStreaming(0x1100));
}

TEST(RegionPolicy, VersionBumpsOnDeclareAndClear)
{
    RegionMap map;
    map.declare(0x1000, 0x40, RegionPolicy::ReadOnly);
    EXPECT_FALSE(map.empty());
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_TRUE(map.validate().empty());
}

TEST(RegionPolicy, SystemRejectsConflictingWorkloadDeclarations)
{
    // A workload whose init() declares overlapping regions of
    // different policies must be refused before simulation starts.
    class ConflictingWorkload : public Workload
    {
      public:
        std::string name() const override { return "conflict"; }
        void
        init(WorkloadEnv &env) override
        {
            Addr a = env.alloc(0x100);
            env.declareReadOnly(a, 0x100);
            env.declareStreaming(a + 0x40, 0x40);
        }
        KernelInfo kernelInfo(unsigned) const override { return {1}; }
        SimTask tbMain(TbContext &) override { co_return; }
    };
    System sys(protoConfig(ProtocolConfig::ddpr()));
    ConflictingWorkload workload;
    EXPECT_DEATH(sys.run(workload), "region declaration conflict");
}

// ---------------------------------------------------------------------
// DD+PR streaming write-through protocol path
// ---------------------------------------------------------------------

TEST(DdprProtocol, StreamingStoreWritesThroughWithoutRegistration)
{
    System sys(protoConfig(ProtocolConfig::ddpr()));
    sys.regions().declare(kData, kLineBytes, RegionPolicy::Streaming);
    doStore(sys, 0, kData, 5);
    doDrain(sys, 0);
    // The store drained to the home L2 without migrating ownership.
    EXPECT_FALSE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_GE(sys.stats().find("l1.0.streaming_writes")->value(), 1.0);
    EXPECT_EQ(sys.debugRead(kData), 5u);
    // A consumer on another CU reads the fresh value from the L2.
    EXPECT_EQ(doLoad(sys, 1, kData), 5u);
}

TEST(DdprProtocol, StreamingWordsStillRegisterUnderPlainDdro)
{
    // Without perRegionPolicy the streaming declaration is inert.
    System sys(protoConfig(ProtocolConfig::ddro()));
    sys.regions().declare(kData, kLineBytes, RegionPolicy::Streaming);
    doStore(sys, 0, kData, 7);
    doDrain(sys, 0);
    EXPECT_TRUE(as<DenovoL1Cache>(sys.l1(0))->ownsWord(kData));
    EXPECT_EQ(doLoad(sys, 1, kData), 7u);
}

TEST(DdprProtocol, StreamingStoreReadableByProducerAfterDrain)
{
    System sys(protoConfig(ProtocolConfig::ddpr()));
    sys.regions().declare(kData, kLineBytes, RegionPolicy::Streaming);
    doStore(sys, 0, kData, 11);
    doDrain(sys, 0);
    EXPECT_EQ(doLoad(sys, 0, kData), 11u);
    doStore(sys, 0, kData, 12); // second phase: overwrite
    doDrain(sys, 0);
    EXPECT_EQ(doLoad(sys, 1, kData), 12u);
    EXPECT_EQ(sys.debugRead(kData), 12u);
}

// ---------------------------------------------------------------------
// Stale read-only mask regression (bugfix)
// ---------------------------------------------------------------------

TEST(DdprProtocol, RedeclaredRegionsInvalidateStaleReadOnlyMasks)
{
    // Fill a line while its words are declared read-only, then
    // re-declare regions (as a kernel boundary would) so the words
    // are writable again. A resident line must not keep honoring the
    // mask it snapshotted at fill: after a writer updates the word
    // and the reader acquires, the reader must see the new value.
    System sys(protoConfig(ProtocolConfig::ddro()));
    sys.declareReadOnly(kData, kLineBytes);
    sys.writeInit(kData, 17);
    EXPECT_EQ(doLoad(sys, 0, kData), 17u);

    // Next kernel: the program no longer declares the region.
    sys.regions().clear();
    doStore(sys, 1, kData, 99);
    doDrain(sys, 1);

    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    // With the stale snapshot the line would stay Valid and serve 17.
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData),
              WordState::Invalid);
    EXPECT_EQ(doLoad(sys, 0, kData), 99u);
}

TEST(DdprProtocol, RedeclaredRegionsRefreshKeepsNewReadOnlyWords)
{
    // The refresh must also work in the other direction: words that
    // BECOME read-only after the line was filled survive the next
    // acquire without a refetch.
    System sys(protoConfig(ProtocolConfig::ddro()));
    sys.writeInit(kData, 21);
    EXPECT_EQ(doLoad(sys, 0, kData), 21u);

    sys.declareReadOnly(kData, kLineBytes); // declared after fill
    doSync(sys, 0,
           makeSync(AtomicFunc::Load, kLock, 0, 0, Scope::Global,
                    SyncSemantics::Acquire));
    EXPECT_EQ(as<DenovoL1Cache>(sys.l1(0))->wordState(kData),
              WordState::Valid);
    double misses = sys.stats().find("l1.0.load_misses")->value();
    EXPECT_EQ(doLoad(sys, 0, kData), 21u);
    EXPECT_EQ(sys.stats().find("l1.0.load_misses")->value(), misses);
}

// ---------------------------------------------------------------------
// Bitwise identity when every region shares one policy
// ---------------------------------------------------------------------

namespace
{

RunResult
runScaled(const std::string &name, const ProtocolConfig &proto)
{
    auto workload = makeScaled(name, 10);
    System sys(protoConfig(proto));
    RunResult result = sys.run(*workload);
    EXPECT_TRUE(result.ok()) << name << " on " << result.config;
    return result;
}

void
expectSameMetrics(const RunResult &a, const RunResult &b,
                  const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.energyTotal, b.energyTotal) << what;
    EXPECT_EQ(a.trafficTotal, b.trafficTotal) << what;
    EXPECT_EQ(a.energy, b.energy) << what;
    EXPECT_EQ(a.traffic, b.traffic) << what;
}

} // namespace

TEST(DdprIdentity, MatchesDdroWhenOnlyReadOnlyRegionsDeclared)
{
    // ST declares read-only regions and nothing streaming, so the
    // per-region column must reproduce DD+RO bit for bit.
    expectSameMetrics(runScaled("ST", ProtocolConfig::ddro()),
                      runScaled("ST", ProtocolConfig::ddpr()),
                      "ST ddro vs ddpr");
}

TEST(DdprIdentity, MatchesDdroWhenNoRegionsDeclared)
{
    // FAM_G declares no regions at all: every word is Owned and the
    // specialized paths never fire.
    expectSameMetrics(runScaled("FAM_G", ProtocolConfig::ddro()),
                      runScaled("FAM_G", ProtocolConfig::ddpr()),
                      "FAM_G ddro vs ddpr");
}

// ---------------------------------------------------------------------
// Graph workload family
// ---------------------------------------------------------------------

namespace
{

std::vector<std::uint32_t>
runGraphImage(GraphWorkload &workload, const ProtocolConfig &proto)
{
    System sys(protoConfig(proto));
    RunResult result = sys.run(workload);
    EXPECT_TRUE(result.ok())
        << workload.name() << " on " << result.config << ": "
        << (result.checkFailures.empty()
                ? "hang"
                : result.checkFailures.front());
    std::vector<std::uint32_t> image(workload.resultWords());
    for (unsigned v = 0; v < workload.resultWords(); ++v) {
        image[v] = sys.debugRead(workload.resultBase() +
                                 static_cast<Addr>(v) * kWordBytes);
    }
    return image;
}

} // namespace

TEST(GraphFamily, PushAndPullComputeTheSameImage)
{
    GraphParams params;
    params.nodes = 64;
    params.rounds = 3;
    for (GraphShape shape : {GraphShape::PowerLaw, GraphShape::Mesh}) {
        Bfs bfs_push(Traversal::Push, shape, params);
        Bfs bfs_pull(Traversal::Pull, shape, params);
        EXPECT_EQ(runGraphImage(bfs_push, ProtocolConfig::ddpr()),
                  runGraphImage(bfs_pull, ProtocolConfig::ddpr()));

        Pagerank pr_push(Traversal::Push, shape, params);
        Pagerank pr_pull(Traversal::Pull, shape, params);
        EXPECT_EQ(runGraphImage(pr_push, ProtocolConfig::ddpr()),
                  runGraphImage(pr_pull, ProtocolConfig::ddpr()));

        Sssp sssp_push(Traversal::Push, shape, params);
        Sssp sssp_pull(Traversal::Pull, shape, params);
        EXPECT_EQ(runGraphImage(sssp_push, ProtocolConfig::ddpr()),
                  runGraphImage(sssp_pull, ProtocolConfig::ddpr()));
    }
}

TEST(GraphFamily, BuildGraphIsDeterministicAndSymmetric)
{
    GraphCsr a = buildGraph(GraphShape::PowerLaw, 96);
    GraphCsr b = buildGraph(GraphShape::PowerLaw, 96);
    EXPECT_EQ(a.rowBase, b.rowBase);
    EXPECT_EQ(a.cols, b.cols);
    // Undirected: every edge appears in both adjacency lists, and
    // its weight is direction-independent.
    for (unsigned v = 0; v < a.nodes; ++v) {
        for (unsigned e = a.rowBase[v]; e < a.rowBase[v + 1]; ++e) {
            unsigned u = a.cols[e];
            bool back = false;
            for (unsigned f = a.rowBase[u]; f < a.rowBase[u + 1]; ++f)
                back |= a.cols[f] == v;
            EXPECT_TRUE(back) << "edge " << v << "->" << u;
            EXPECT_EQ(edgeWeight(u, v), edgeWeight(v, u));
        }
    }
    GraphCsr mesh = buildGraph(GraphShape::Mesh, 160);
    EXPECT_EQ(mesh.nodes, 144u); // rounded to 12x12
}

TEST(GraphFamily, RunTwiceIdentityOnGraphWorkloads)
{
    // A graph run is a pure function of its config: a second fresh
    // System reproduces every simulated metric bit for bit.
    for (const char *name : {"BFS_PULL_PL", "SSSP_PUSH_M"}) {
        expectSameMetrics(runScaled(name, ProtocolConfig::ddpr()),
                          runScaled(name, ProtocolConfig::ddpr()),
                          std::string(name) + " run twice");
    }
}

// ---------------------------------------------------------------------
// Schema enums stay in lockstep with the simulator's registries
// ---------------------------------------------------------------------

namespace
{

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectEnumContains(const std::string &schema_json,
                   const std::string &schema_name,
                   const std::string &value)
{
    EXPECT_NE(schema_json.find("\"" + value + "\""), std::string::npos)
        << schema_name << " is missing enum value \"" << value << '"';
}

} // namespace

TEST(SchemaPins, RaceSchemaAcceptsEveryConfigColumn)
{
    std::string schema =
        slurpFile(NOSYNC_SOURCE_DIR "/tools/race_schema.json");
    // Every config a bench harness can emit a race report for must
    // validate against the checked-in schema.
    for (const ProtocolConfig &proto : ProtocolConfig::all()) {
        expectEnumContains(schema, "race_schema.json",
                           proto.shortName());
    }
}

TEST(SchemaPins, ExploreAndAxiomSchemasAcceptEveryLitmusCell)
{
    std::string explore =
        slurpFile(NOSYNC_SOURCE_DIR "/tools/explore_schema.json");
    std::string axiom =
        slurpFile(NOSYNC_SOURCE_DIR "/tools/axiom_schema.json");
    // Config columns litmus_explore sweeps.
    for (const ProtocolConfig &proto : ProtocolConfig::all()) {
        expectEnumContains(explore, "explore_schema.json",
                           proto.shortName());
        expectEnumContains(axiom, "axiom_schema.json",
                           proto.shortName());
    }
    // Litmus program names come from the explore registry.
    for (const std::string &program : explore::litmusSuite()) {
        expectEnumContains(explore, "explore_schema.json", program);
        expectEnumContains(axiom, "axiom_schema.json", program);
    }
}

TEST(SchemaPins, RegistryGroupsSumToTheRegistryPin)
{
    std::size_t grouped = 0;
    for (const char *group :
         {"no-sync", "global-sync", "local-sync", "device-sync",
          "graph"}) {
        grouped += workloadsInGroup(group).size();
    }
    EXPECT_EQ(grouped, workloadRegistry().size())
        << "a registry entry uses a group not covered by the harness "
           "group list";
}

/**
 * @file
 * Unit tests for protocol vocabulary: atomic semantics, configuration
 * naming/scoping, energy model, and feature tables.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "core/features.hh"
#include "energy/energy_model.hh"

using namespace nosync;

TEST(AtomicFuncs, Load)
{
    SyncOp op;
    op.func = AtomicFunc::Load;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.returned, 5u);
    EXPECT_EQ(r.newValue, 5u);
    EXPECT_FALSE(r.stored);
}

TEST(AtomicFuncs, Store)
{
    SyncOp op;
    op.func = AtomicFunc::Store;
    op.operand = 9;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.newValue, 9u);
    EXPECT_TRUE(r.stored);
}

TEST(AtomicFuncs, FetchAddReturnsOld)
{
    SyncOp op;
    op.func = AtomicFunc::FetchAdd;
    op.operand = 3;
    AtomicResult r = applyAtomic(op, 5);
    EXPECT_EQ(r.returned, 5u);
    EXPECT_EQ(r.newValue, 8u);
}

TEST(AtomicFuncs, Exchange)
{
    SyncOp op;
    op.func = AtomicFunc::Exchange;
    op.operand = 1;
    AtomicResult r = applyAtomic(op, 0);
    EXPECT_EQ(r.returned, 0u);
    EXPECT_EQ(r.newValue, 1u);
}

TEST(AtomicFuncs, CompareSwapSuccessAndFailure)
{
    SyncOp op;
    op.func = AtomicFunc::CompareSwap;
    op.compare = 0;
    op.operand = 1;
    AtomicResult ok = applyAtomic(op, 0);
    EXPECT_TRUE(ok.stored);
    EXPECT_EQ(ok.newValue, 1u);
    EXPECT_EQ(ok.returned, 0u);
    AtomicResult fail = applyAtomic(op, 7);
    EXPECT_FALSE(fail.stored);
    EXPECT_EQ(fail.newValue, 7u);
    EXPECT_EQ(fail.returned, 7u);
}

TEST(SyncOpSemantics, AcquireReleaseFlags)
{
    SyncOp op;
    op.sem = SyncSemantics::Acquire;
    EXPECT_TRUE(op.isAcquire());
    EXPECT_FALSE(op.isRelease());
    op.sem = SyncSemantics::Release;
    EXPECT_FALSE(op.isAcquire());
    EXPECT_TRUE(op.isRelease());
    op.sem = SyncSemantics::AcquireRelease;
    EXPECT_TRUE(op.isAcquire());
    EXPECT_TRUE(op.isRelease());
}

TEST(ProtocolConfig, ShortNames)
{
    EXPECT_EQ(ProtocolConfig::gd().shortName(), "GD");
    EXPECT_EQ(ProtocolConfig::gh().shortName(), "GH");
    EXPECT_EQ(ProtocolConfig::dd().shortName(), "DD");
    EXPECT_EQ(ProtocolConfig::ddro().shortName(), "DD+RO");
    EXPECT_EQ(ProtocolConfig::dh().shortName(), "DH");
    EXPECT_EQ(ProtocolConfig::ddse().shortName(), "DD+SE");
    EXPECT_EQ(ProtocolConfig::ddpr().shortName(), "DD+PR");
}

TEST(ProtocolConfig, RowNamesAreUniqueAndFactoriesMapToOwnRows)
{
    const std::vector<ProtocolConfig> all = ProtocolConfig::all();
    ASSERT_EQ(all.size(), kProtocolColumns.size());
    std::set<std::string> names;
    for (const ProtocolConfig &config : all) {
        EXPECT_TRUE(names.insert(config.shortName()).second)
            << "duplicate row " << config.shortName();
        std::optional<ProtocolConfig> named =
            ProtocolConfig::byName(config.shortName());
        ASSERT_TRUE(named.has_value());
        EXPECT_TRUE(*named == config);
    }
    EXPECT_FALSE(ProtocolConfig::byName("GD+RO").has_value());

    // Factory i picks row i.
    const ProtocolConfig factories[] = {
        ProtocolConfig::gd(), ProtocolConfig::gh(),
        ProtocolConfig::dd(), ProtocolConfig::ddro(),
        ProtocolConfig::dh(), ProtocolConfig::ddse(),
        ProtocolConfig::ddpr()};
    ASSERT_EQ(std::size(factories), kProtocolColumns.size());
    for (std::size_t i = 0; i < std::size(factories); ++i) {
        EXPECT_EQ(&factories[i].row(), &kProtocolColumns[i]);
        EXPECT_TRUE(factories[i] == all[i]);
    }

    std::vector<std::string> studied;
    for (const ProtocolConfig &config : ProtocolConfig::studied())
        studied.push_back(config.shortName());
    EXPECT_EQ(studied, (std::vector<std::string>{"GD", "GH", "DD",
                                                 "DD+RO", "DH"}));
}

TEST(ProtocolConfig, DdprImpliesReadOnlyRegions)
{
    ProtocolConfig ddpr = ProtocolConfig::ddpr();
    EXPECT_TRUE(ddpr.perRegionPolicy());
    EXPECT_TRUE(ddpr.readOnlyRegions());
    EXPECT_FALSE(ProtocolConfig::ddro().perRegionPolicy());
    EXPECT_FALSE(ProtocolConfig::dd().perRegionPolicy());
}

TEST(ProtocolConfig, DrfIgnoresScopeAnnotations)
{
    EXPECT_EQ(ProtocolConfig::dd().effectiveScope(Scope::Local),
              Scope::Global);
    EXPECT_EQ(ProtocolConfig::gh().effectiveScope(Scope::Local),
              Scope::Local);
    EXPECT_EQ(ProtocolConfig::dh().effectiveScope(Scope::Global),
              Scope::Global);
}

TEST(EnergyModel, ComponentsAccumulate)
{
    using E = EnergyModel;
    stats::StatSet stats;
    EnergyModel energy(stats);
    energy.l1Access(2);
    energy.l1TagAccess(3);
    energy.l2Access();
    energy.scratchAccess(4);
    energy.atomicAlu(5);
    energy.coreActiveCycles(6);
    energy.flitCrossings(10);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::L1D),
                     2 * E::kL1AccessPj + 3 * E::kL1TagAccessPj);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::L2),
                     E::kL2AccessPj);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::Scratch),
                     4 * E::kScratchAccessPj);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::GpuCore),
                     5 * E::kAtomicAluOpPj + 6 * E::kCoreActiveCyclePj);
    EXPECT_DOUBLE_EQ(energy.component(EnergyComponent::Network),
                     10 * E::kFlitHopPj);
    // The documented values (DESIGN.md section 3): 90 + 150 + 60 +
    // 130 + 250 pJ.
    EXPECT_DOUBLE_EQ(energy.total(), 680.0);
}

TEST(Features, Table2ShapesMatchPaper)
{
    using S = FeatureSet::Support;
    FeatureSet gd = featuresOf(ProtocolConfig::gd());
    EXPECT_EQ(gd.reuseWrittenData, S::No);
    EXPECT_EQ(gd.noInvalidationsAcks, S::Yes);
    EXPECT_EQ(gd.dynamicSharing, S::No);

    FeatureSet gh = featuresOf(ProtocolConfig::gh());
    EXPECT_EQ(gh.reuseWrittenData, S::IfLocalScope);
    EXPECT_EQ(gh.dynamicSharing, S::No);

    FeatureSet dd = featuresOf(ProtocolConfig::dd());
    EXPECT_EQ(dd.reuseWrittenData, S::Yes);
    EXPECT_EQ(dd.reuseValidData, S::No);
    EXPECT_EQ(dd.decoupledGranularity, S::Yes);
    EXPECT_EQ(dd.dynamicSharing, S::Yes);

    FeatureSet ddro = featuresOf(ProtocolConfig::ddro());
    EXPECT_EQ(ddro.reuseValidData, S::IfLocalScope);

    FeatureSet dh = featuresOf(ProtocolConfig::dh());
    EXPECT_EQ(dh.reuseValidData, S::IfLocalScope);
    EXPECT_EQ(dh.reuseSynchronization, S::Yes);
}

TEST(Features, Table1HasThreeProtocolClasses)
{
    auto rows = protocolClassification();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].category, "Conv HW");
    EXPECT_EQ(rows[1].invalidationInitiator, "reader");
    EXPECT_EQ(rows[2].upToDateTracking, "ownership");
}

TEST(Features, Table5IncludesThisWork)
{
    auto rows = relatedWorkComparison();
    EXPECT_EQ(rows.back().scheme, "DD (this work)");
    EXPECT_EQ(rows.back().features.dynamicSharing,
              FeatureSet::Support::Yes);
}

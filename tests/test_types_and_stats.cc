/**
 * @file
 * Unit tests for address helpers, the statistics package, and the
 * deterministic RNG.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace nosync;

TEST(Types, LineAndWordAlignment)
{
    EXPECT_EQ(lineAlign(0x1000), 0x1000u);
    EXPECT_EQ(lineAlign(0x103f), 0x1000u);
    EXPECT_EQ(lineAlign(0x1040), 0x1040u);
    EXPECT_EQ(wordAlign(0x1003), 0x1000u);
    EXPECT_EQ(wordAlign(0x1004), 0x1004u);
}

TEST(Types, WordInLine)
{
    EXPECT_EQ(wordInLine(0x1000), 0u);
    EXPECT_EQ(wordInLine(0x1004), 1u);
    EXPECT_EQ(wordInLine(0x103c), 15u);
}

TEST(Types, WordMaskOf)
{
    EXPECT_EQ(wordMaskOf(0x1000), 0x0001u);
    EXPECT_EQ(wordMaskOf(0x103c), 0x8000u);
}

TEST(Types, Popcount)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(kFullLineMask), 16u);
    EXPECT_EQ(popcount(0x5555), 8u);
}

TEST(Stats, ScalarAccumulates)
{
    stats::StatSet set;
    stats::Scalar &s = set.scalar("x", "a scalar");
    s += 2.5;
    ++s;
    ASSERT_NE(set.find("x"), nullptr);
    EXPECT_DOUBLE_EQ(set.find("x")->value(), 3.5);
}

TEST(Stats, ScalarReregistrationReturnsSame)
{
    stats::StatSet set;
    stats::Scalar &a = set.scalar("x", "a");
    stats::Scalar &b = set.scalar("x", "a");
    EXPECT_EQ(&a, &b);
}

TEST(Stats, VectorSubnamesAndTotal)
{
    stats::StatSet set;
    stats::Vector &v = set.vector("v", "a vector", {"a", "b", "c"});
    v.add(0, 1.0);
    v.add(2, 4.0);
    const stats::Vector *found = set.findVector("v");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->indexOf("a"), 0);
    EXPECT_EQ(found->indexOf("nope"), -1);
    EXPECT_DOUBLE_EQ(found->value(0), 1.0);
    EXPECT_DOUBLE_EQ(found->value(1), 0.0);
    EXPECT_DOUBLE_EQ(found->value(2), 4.0);
    EXPECT_DOUBLE_EQ(v.total(), 5.0);
}

TEST(Stats, FindDistinguishesAbsentFromZero)
{
    stats::StatSet set;
    set.scalar("zero", "registered but never bumped");
    EXPECT_NE(set.find("zero"), nullptr);
    EXPECT_DOUBLE_EQ(set.find("zero")->value(), 0.0);
    EXPECT_EQ(set.find("nope"), nullptr);
    EXPECT_EQ(set.findVector("nope"), nullptr);
    EXPECT_EQ(set.findDistribution("nope"), nullptr);
}

TEST(Stats, ResetAllZeroes)
{
    stats::StatSet set;
    set.scalar("x", "a") += 7;
    set.vector("v", "b", {"p"}).add(0, 3);
    set.registerDistribution("d", "c")->sample(8.0);
    set.resetAll();
    EXPECT_DOUBLE_EQ(set.find("x")->value(), 0.0);
    EXPECT_DOUBLE_EQ(set.findVector("v")->value(0), 0.0);
    EXPECT_EQ(set.findDistribution("d")->count(), 0u);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    stats::StatSet set;
    set.scalar("alpha", "desc of alpha") += 42;
    std::string dump = set.dump();
    EXPECT_NE(dump.find("alpha"), std::string::npos);
    EXPECT_NE(dump.find("42"), std::string::npos);
    EXPECT_NE(dump.find("desc of alpha"), std::string::npos);
}

TEST(Stats, TypedHandlesUpdateTheRegisteredStat)
{
    stats::StatSet set;
    stats::Handle<stats::Scalar> h = set.registerScalar("s", "d");
    ASSERT_TRUE(static_cast<bool>(h));
    ++h;
    h += 4.0;
    EXPECT_DOUBLE_EQ(set.find("s")->value(), 5.0);

    // Re-registration hands back a handle to the same statistic.
    stats::Handle<stats::Scalar> again = set.registerScalar("s", "d");
    ++again;
    EXPECT_DOUBLE_EQ(h->value(), 6.0);

    stats::Handle<stats::Vector> v =
        set.registerVector("v", "d", {"a", "b"});
    v->add(1, 2.0);
    EXPECT_DOUBLE_EQ(set.findVector("v")->value(1), 2.0);

    stats::Handle<stats::Distribution> dist =
        set.registerDistribution("dist", "d");
    dist->sample(3.0);
    EXPECT_EQ(set.findDistribution("dist")->count(), 1u);

    // Default-constructed handles are empty and test false.
    stats::Handle<stats::Scalar> empty;
    EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(Stats, DumpOrderMatchesSortedMap)
{
    // Registered out of name order; the report lists scalars exactly
    // as a std::map keyed by name would.
    const std::vector<std::string> names = {
        "l1.10.x", "l1.1.x", "l1.1", "l1.2.x", "a", "l1.10", "B", "l1.1.y"};
    stats::StatSet set;
    std::map<std::string, double> expected;
    double v = 1.0;
    for (const std::string &name : names) {
        set.scalar(name, "d " + name) += v;
        expected[name] = v;
        v += 1.0;
    }
    std::ostringstream want;
    for (const auto &[name, value] : expected)
        want << name << " " << value << " # d " << name << "\n";
    EXPECT_EQ(set.dump(), want.str());
}

TEST(Stats, HandleSurvivesManyLaterRegistrations)
{
    stats::StatSet set;
    stats::Handle<stats::Scalar> first = set.registerScalar("first", "d");
    for (int i = 0; i < 10000; ++i)
        set.registerScalar("later." + std::to_string(i), "d") += i;
    ++first;
    first += 2.0;
    ASSERT_NE(set.find("first"), nullptr);
    EXPECT_EQ(set.find("first"), &*first);
    EXPECT_DOUBLE_EQ(set.find("first")->value(), 3.0);
    EXPECT_DOUBLE_EQ(set.find("later.9999")->value(), 9999.0);
    EXPECT_DOUBLE_EQ(set.find("later.0")->value(), 0.0);
}

TEST(Stats, ReregistrationKeepsValueAndFirstDescription)
{
    stats::StatSet set;
    stats::Handle<stats::Scalar> a = set.registerScalar("x", "first");
    a += 5.0;
    for (int i = 0; i < 100; ++i)
        set.registerScalar("y." + std::to_string(i), "d");
    stats::Handle<stats::Scalar> b = set.registerScalar("x", "second");
    EXPECT_EQ(&*a, &*b);
    EXPECT_DOUBLE_EQ(b->value(), 5.0);
    EXPECT_NE(set.dump().find("x 5 # first\n"), std::string::npos);
}

TEST(Stats, JoinedNameIsTheSameStatAsTheWholeName)
{
    // A name registered as prefix + leaf is one stat with the joined
    // name, whichever form registers it first, and a re-registration
    // through either form leaves the dump as it was.
    stats::StatSet joined;
    stats::StatSet whole;
    stats::Handle<stats::Scalar> a =
        joined.registerScalar("l1.3", ".load_hits", "loads");
    joined.registerScalar("l1.3", ".evictions", "evictions");
    whole.registerScalar("l1.3.load_hits", "loads");
    whole.registerScalar("l1.3.evictions", "evictions");
    a += 2.0;
    ++whole.scalar("l1.3.load_hits", "loads");
    ++whole.scalar("l1.3.load_hits", "loads");
    std::string before = joined.dump();
    EXPECT_EQ(before, whole.dump());

    stats::Handle<stats::Scalar> b =
        joined.registerScalar("l1.3.load_hits", "other");
    stats::Handle<stats::Scalar> c =
        joined.registerScalar("l1.", "3.load_hits", "other");
    EXPECT_EQ(&*a, &*b);
    EXPECT_EQ(&*a, &*c);
    EXPECT_EQ(joined.find("l1.3.load_hits"), &*a);
    EXPECT_EQ(joined.dump(), before);

    // A name registered after a retrieval lands where it should.
    joined.registerScalar("l1.3", ".sync_hits", "syncs");
    whole.registerScalar("l1.3.sync_hits", "syncs");
    EXPECT_EQ(joined.dump(), whole.dump());
}

TEST(Stats, FindAbsentNameIsNull)
{
    stats::StatSet empty;
    EXPECT_EQ(empty.find("x"), nullptr);
    EXPECT_EQ(empty.find(""), nullptr);

    stats::StatSet set;
    for (int i = 0; i < 1000; ++i)
        set.scalar("s." + std::to_string(i), "d");
    EXPECT_EQ(set.find("s.1000"), nullptr);
    EXPECT_EQ(set.find("s."), nullptr);
    EXPECT_EQ(set.find("s.10 "), nullptr);
    EXPECT_NE(set.find("s.999"), nullptr);
}

TEST(Stats, DistributionMoments)
{
    stats::Distribution d("lat", "latency");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);

    for (double v : {4.0, 8.0, 100.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 112.0);
    EXPECT_DOUBLE_EQ(d.min(), 4.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 112.0 / 3.0);
}

TEST(Stats, DistributionPercentilesBracketTheSamples)
{
    stats::Distribution d("lat", "latency");
    // 1000 samples spread uniformly over [1, 1000].
    for (int i = 1; i <= 1000; ++i)
        d.sample(static_cast<double>(i));

    double p50 = d.percentile(0.50);
    double p95 = d.percentile(0.95);
    // Log2 buckets give coarse estimates; they must stay within the
    // containing power-of-two bracket of the true quantile.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1000.0);
    EXPECT_GE(p95, 512.0);
    EXPECT_LE(p95, 1000.0);
    EXPECT_GE(p95, p50);
    // Extremes clamp to the observed range exactly.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 1000.0);
}

TEST(Stats, DistributionSingleSampleReportsItEverywhere)
{
    stats::Distribution d("lat", "latency");
    d.sample(37.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 37.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 37.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 37.0);
}

TEST(Stats, DistributionAppearsInDump)
{
    stats::StatSet set;
    set.registerDistribution("trace.latency.load", "load latency")
        ->sample(12.0);
    std::string dump = set.dump();
    EXPECT_NE(dump.find("trace.latency.load"), std::string::npos);
    EXPECT_NE(dump.find("count=1"), std::string::npos);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

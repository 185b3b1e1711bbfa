/**
 * @file
 * Unit tests for the common utility layer: RNG, bit operations,
 * statistics and the JSON text helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bitops.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace gqos
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, MixSeedDecorrelates)
{
    EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 2, 4));
    EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 3, 2));
    EXPECT_NE(mixSeed(0, 0, 0), mixSeed(0, 0, 1));
}

TEST(Bitops, FirstSetBit)
{
    EXPECT_EQ(firstSetBit(0x1ull), 0);
    EXPECT_EQ(firstSetBit(0x8ull), 3);
    EXPECT_EQ(firstSetBit(1ull << 63), 63);
    EXPECT_EQ(firstSetBit(0ull), 64);
}

TEST(Bitops, SetClearTest)
{
    std::uint64_t m = 0;
    m = setBit(m, 5);
    EXPECT_TRUE(testBit(m, 5));
    EXPECT_FALSE(testBit(m, 4));
    m = clearBit(m, 5);
    EXPECT_EQ(m, 0ull);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(divCeil(1, 5), 1);
}

TEST(SampleStat, Basics)
{
    SampleStat s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Histogram, Bucketing)
{
    Histogram h({0.01, 0.05, 0.10, 0.20});
    h.add(0.005); // bucket 0
    h.add(0.03);  // bucket 1
    h.add(0.07);  // bucket 2
    h.add(0.15);  // bucket 3
    h.add(0.5);   // overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Histogram, BoundaryGoesToLowerBucket)
{
    Histogram h({1.0, 2.0});
    h.add(1.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    h.add(2.0);
    EXPECT_EQ(h.bucketCount(1), 1u);
}

TEST(RunningAverage, Lifetime)
{
    RunningAverage a;
    a.add(10);
    a.add(20);
    EXPECT_DOUBLE_EQ(a.lifetime(), 15.0);
    EXPECT_DOUBLE_EQ(a.last(), 20.0);
}

TEST(Cli, KeyValueForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta", "4",
                          "--flag", "--no-gamma", "pos1"};
    CliArgs args(7, argv);
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_EQ(args.getInt("beta", 0), 4);
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_FALSE(args.getBool("gamma", true));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Defaults)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(args.getString("missing", "x"), "x");
    EXPECT_FALSE(args.has("missing"));
}

TEST(CliDeath, RejectsTrailingGarbageInNumbers)
{
    const char *argv[] = {"prog", "--cycles=10k", "--rate=1.5x",
                          "--empty="};
    CliArgs args(4, argv);
    EXPECT_EXIT(args.getInt("cycles", 0),
                ::testing::ExitedWithCode(1), "10k");
    EXPECT_EXIT(args.getDouble("rate", 0.0),
                ::testing::ExitedWithCode(1), "1.5x");
    EXPECT_EXIT(args.getInt("empty", 0),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(args.getDouble("empty", 0.0),
                ::testing::ExitedWithCode(1), "");
}

TEST(Cli, AcceptsFullTokenNumbers)
{
    const char *argv[] = {"prog", "--cycles=200000",
                          "--rate=2.5e-1", "--neg=-7"};
    CliArgs args(4, argv);
    EXPECT_EQ(args.getInt("cycles", 0), 200000);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.25);
    EXPECT_EQ(args.getInt("neg", 0), -7);
}

TEST(Cli, SplitList)
{
    auto v = splitList("a,b, c");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], "c");
}

TEST(Json, NumbersRoundTripAndNonFiniteIsNull)
{
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
    EXPECT_EQ(jsonNumber(-INFINITY), "null");
    EXPECT_EQ(jsonNumber(NAN), "null");
}

TEST(Json, EscapeQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\ny\tz\r"), "x\\ny\\tz\\r");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonEscape("plain|key:0.9"), "plain|key:0.9");
}

} // anonymous namespace
} // namespace gqos

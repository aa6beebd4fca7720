/**
 * @file
 * Unit tests for src/common: RNG determinism and distribution, bit
 * utilities, and the logging formatter.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace gds
{
namespace
{

TEST(SplitMix64, DeterministicForSameSeed)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowCoversFullRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) is 0.5; stderr ~ 0.29/sqrt(n) ~ 0.001.
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, RoughlyUniformBuckets)
{
    Rng rng(123);
    const int n = 100000;
    int buckets[10] = {};
    for (int i = 0; i < n; ++i)
        ++buckets[rng.below(10)];
    for (int b = 0; b < 10; ++b)
        EXPECT_NEAR(buckets[b], n / 10, n / 100);
}

TEST(Rng, UniformThresholdIsExactAtTheBoundary)
{
    // (next() >> 11) < uniformThreshold(p) must agree with
    // uniform() < p for every 53-bit k; check the k on either side of
    // each threshold, both ends of the range and random k.
    const double probabilities[] = {
        0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5, 0.25, 0.875,
        1.0 / 3.0, 0x1.fffffffffffffp-1, 0x1p-53, 0x1.8p-53, 1e-300,
        5e-324, 0.0, -0.0, -1.0, 1.0, 1.5, 4096.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    constexpr std::uint64_t kTop = (1ULL << 53) - 1;
    Rng rng(5);
    for (const double p : probabilities) {
        const std::uint64_t t = uniformThreshold(p);
        ASSERT_LE(t, 1ULL << 53) << p;
        std::vector<std::uint64_t> ks = {0, kTop, t};
        if (t > 0)
            ks.push_back(t - 1);
        for (int i = 0; i < 64; ++i)
            ks.push_back(rng.next() >> 11);
        for (const std::uint64_t k : ks) {
            if (k > kTop)
                continue;
            const bool by_double = static_cast<double>(k) * 0x1.0p-53 < p;
            EXPECT_EQ(k < t, by_double) << "p " << p << ", k " << k;
        }
    }
}

TEST(BitUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 3), 1);
    EXPECT_EQ(ceilDiv(0, 3), 0);
    EXPECT_EQ(ceilDiv<std::uint64_t>(1ULL << 40, 7), ((1ULL << 40) + 6) / 7);
}

TEST(BitUtil, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_TRUE(isPow2(1ULL << 63));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(1023));
}

TEST(BitUtil, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor((1ULL << 32) + 5), 32u);
}

TEST(BitUtil, AlignUpDown)
{
    EXPECT_EQ(alignUp(0, 32), 0u);
    EXPECT_EQ(alignUp(1, 32), 32u);
    EXPECT_EQ(alignUp(32, 32), 32u);
    EXPECT_EQ(alignUp(33, 32), 64u);
    EXPECT_EQ(alignDown(31, 32), 0u);
    EXPECT_EQ(alignDown(32, 32), 32u);
    EXPECT_EQ(alignDown(63, 32), 32u);
}

TEST(Logging, FormatterProducesPrintfOutput)
{
    EXPECT_EQ(detail::vformat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(detail::vformat("plain"), "plain");
}

TEST(Logging, MacrosAndHarnessLinesPrintExactBytes)
{
    testing::internal::CaptureStderr();
    warn("queue full");
    inform("x=%d", 5);
    log::infof("harness", {}, "loading %s", "RM14");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: queue full\n"
              "info: x=5\n"
              "info: [harness] loading RM14\n");
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    // Should not abort.
    gds_assert(1 + 1 == 2, "math works");
    SUCCEED();
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ panic("boom %d", 3); }, "boom 3");
}

TEST(LoggingDeath, PanicLineCarriesSourceLocation)
{
    EXPECT_DEATH({ panic("boom %d", 3); },
                 "panic: boom 3 \\(.*test_common\\.cc:[0-9]+\\)");
}

TEST(LoggingDeath, FatalExitsWithPrefixedLine)
{
    EXPECT_EXIT({ fatal("bad input %d", 7); },
                testing::ExitedWithCode(1), "fatal: bad input 7");
}

TEST(LoggingDeath, AssertAbortsOnFalse)
{
    EXPECT_DEATH({ gds_assert(false, "invariant %s", "broken"); },
                 "invariant broken");
}

TEST(Types, Sentinels)
{
    EXPECT_EQ(invalidVertex, 0xffffffffu);
    EXPECT_TRUE(propInf > 1e30f);
}

} // namespace
} // namespace gds

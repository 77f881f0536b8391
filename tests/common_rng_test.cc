/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hh"

namespace mcdvfs
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, FillMatchesNext)
{
    Rng filled(99);
    Rng stepped(99);
    std::vector<std::uint64_t> block;
    for (const std::size_t n : {0, 1, 7, 512, 1000}) {
        block.assign(n, 0);
        filled.fill(block.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(block[i], stepped.next()) << n << " draws, draw " << i;
        // The state written back continues the same sequence.
        ASSERT_EQ(filled.next(), stepped.next()) << n << " draws";
    }
}

TEST(Rng, GroupedFillMatchesFill)
{
    // Up to two vectors of lanes and one more, so every lane of a
    // full vector, a part-filled one and a lone last generator is
    // compared with that generator filled alone.
    const std::size_t max_gens = 2 * Rng::kLanes + 1;
    for (std::size_t count = 1; count <= max_gens; ++count) {
        std::vector<Rng> grouped;
        std::vector<Rng> alone;
        for (std::size_t g = 0; g < count; ++g) {
            grouped.emplace_back(1000 + g);
            alone.emplace_back(1000 + g);
        }
        std::vector<Rng *> gens;
        for (Rng &rng : grouped)
            gens.push_back(&rng);
        std::vector<std::vector<std::uint64_t>> blocks(count);
        std::vector<std::uint64_t> want;
        for (const std::size_t n : {0, 1, 7, 508}) {
            std::vector<std::uint64_t *> outs;
            for (std::vector<std::uint64_t> &block : blocks) {
                block.assign(n, 0);
                outs.push_back(block.data());
            }
            Rng::fill(gens, outs, n);
            for (std::size_t g = 0; g < count; ++g) {
                want.assign(n, 0);
                alone[g].fill(want.data(), n);
                ASSERT_EQ(blocks[g], want)
                    << count << " generators, " << n << " draws, lane " << g;
            }
        }
        for (std::size_t g = 0; g < count; ++g)
            ASSERT_EQ(grouped[g].next(), alone[g].next()) << "lane " << g;
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform();
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(5);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.uniformInt(8)];
    for (int count : seen) {
        EXPECT_GT(count, 800);
        EXPECT_LT(count, 1200);
    }
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricWithCertainSuccess)
{
    Rng rng(19);
    EXPECT_EQ(rng.geometric(1.0), 0u);
    EXPECT_EQ(rng.geometric(2.0), 0u);
}

TEST(Rng, GeometricMean)
{
    Rng rng(23);
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(rng.geometric(0.25));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(total / n, 3.0, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(29);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, Uniform53ThresholdDecidesLikeUniform)
{
    std::vector<double> ps = {
        -1.0, -0.0, 0.0, 5e-324, 1e-300, 0x1.0p-53, 0.1, 0.3, 0.5,
        1.0 - 0x1.0p-53, 1.0, 1.0 + 1e-9, 2.0,
        std::numeric_limits<double>::quiet_NaN()};
    Rng pick(5);
    for (int i = 0; i < 200; ++i)
        ps.push_back(pick.uniform());

    for (const double p : ps) {
        const std::uint64_t threshold = Rng::uniform53Threshold(p);
        // Random draws, through both spellings of the same test.
        Rng a(17);
        Rng b(17);
        for (int i = 0; i < 500; ++i)
            ASSERT_EQ(a.uniform53() < threshold, b.uniform() < p) << p;
        // The draws on either side of the threshold, which random
        // draws almost never reach.
        for (const std::uint64_t m : {threshold - 1, threshold,
                                      threshold + 1}) {
            if (m >= (1ull << 53))
                continue;
            EXPECT_EQ(m < threshold,
                      static_cast<double>(m) * 0x1.0p-53 < p)
                << "p " << p << ", draw " << m;
        }
    }
}

/** Property sweep: uniformInt stays in range for many bounds. */
class RngBoundProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundProperty, UniformIntWithinBound)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 2654435761u + 1);
    for (int i = 0; i < 2000; ++i)
        ASSERT_LT(rng.uniformInt(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundProperty,
                         ::testing::Values(1, 2, 3, 7, 64, 1000,
                                           1u << 20, (1ull << 40) + 7));

} // namespace
} // namespace mcdvfs

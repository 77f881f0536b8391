/**
 * @file
 * SettingMask unit tests: bit operations, word-wise intersection, the
 * set-bit iterator, the branchless cutoff filter, and the capacity
 * contract behind the reference-path fallback.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/setting_mask.hh"

namespace mcdvfs
{
namespace
{

std::vector<std::size_t>
toVector(const SettingMask &mask)
{
    std::vector<std::size_t> out;
    for (const std::size_t k : mask)
        out.push_back(k);
    return out;
}

TEST(SettingMask, StartsEmpty)
{
    SettingMask mask(70);
    EXPECT_EQ(mask.size(), 70u);
    EXPECT_EQ(mask.count(), 0u);
    EXPECT_FALSE(mask.any());
    EXPECT_TRUE(mask.none());
    EXPECT_EQ(mask.firstSet(), SettingMask::kNpos);
}

TEST(SettingMask, SetResetTest)
{
    SettingMask mask(496);
    mask.set(0);
    mask.set(63);
    mask.set(64);
    mask.set(495);
    EXPECT_TRUE(mask.test(0));
    EXPECT_TRUE(mask.test(63));
    EXPECT_TRUE(mask.test(64));
    EXPECT_TRUE(mask.test(495));
    EXPECT_FALSE(mask.test(1));
    EXPECT_FALSE(mask.test(128));
    EXPECT_EQ(mask.count(), 4u);
    EXPECT_EQ(mask.firstSet(), 0u);

    mask.reset(0);
    EXPECT_FALSE(mask.test(0));
    EXPECT_EQ(mask.count(), 3u);
    EXPECT_EQ(mask.firstSet(), 63u);

    mask.clear();
    EXPECT_TRUE(mask.none());
    EXPECT_EQ(mask.size(), 496u);
}

TEST(SettingMask, IteratorWalksSetBitsAscending)
{
    // Bits straddling several word boundaries.
    const std::vector<std::size_t> bits = {3, 62, 63, 64, 130, 255, 495};
    SettingMask mask(496);
    for (const std::size_t k : bits)
        mask.set(k);
    EXPECT_EQ(toVector(mask), bits);
    EXPECT_EQ(toVector(SettingMask(496)), std::vector<std::size_t>{});
}

TEST(SettingMask, AndInplaceIntersects)
{
    SettingMask a(70);
    SettingMask b(70);
    for (const std::size_t k : {1u, 5u, 64u, 69u})
        a.set(k);
    for (const std::size_t k : {5u, 6u, 64u})
        b.set(k);
    a.andInplace(b);
    EXPECT_EQ(toVector(a), (std::vector<std::size_t>{5, 64}));
    EXPECT_TRUE(a.intersects(b));

    SettingMask empty(70);
    a.andInplace(empty);
    EXPECT_TRUE(a.none());
    EXPECT_FALSE(a.intersects(b));
}

TEST(SettingMask, EqualityCoversSizeAndBits)
{
    SettingMask a(70);
    SettingMask b(70);
    EXPECT_EQ(a, b);
    a.set(12);
    EXPECT_NE(a, b);
    b.set(12);
    EXPECT_EQ(a, b);
    // Same bits over a different space are a different mask.
    SettingMask c(71);
    c.set(12);
    EXPECT_NE(a, c);
}

TEST(SettingMask, FilterKeepsSetBitsAtOrAboveCutoff)
{
    SettingMask mask(70);
    std::vector<double> values(70, 0.0);
    for (const std::size_t k : {2u, 10u, 64u, 69u})
        mask.set(k);
    values[2] = 1.0;    // above
    values[10] = 0.5;   // exactly at the cutoff: kept
    values[64] = 0.49;  // below: dropped
    values[69] = 2.0;   // above
    values[3] = 9.0;    // not set: stays out no matter the value

    const SettingMask kept = mask.filterGE(values.data(), 0.5);
    EXPECT_EQ(toVector(kept), (std::vector<std::size_t>{2, 10, 69}));
    EXPECT_EQ(kept.size(), mask.size());
    // The source mask is untouched.
    EXPECT_EQ(mask.count(), 4u);
}

TEST(SettingMask, CapacityContract)
{
    // The mask's hard cap is the SettingsSpace bound, so a mask over
    // any space that builds fits.  The heap tier carries spaces past
    // the inline capacity up to that (generous) cap; larger spaces are
    // rejected where they are built.
    EXPECT_EQ(SettingMask::kMaxCapacity, SettingsSpace::kMaxSettings);
    const auto ladder = [](std::size_t steps) {
        return FrequencyLadder(megaHertz(1),
                               megaHertz(static_cast<double>(steps)),
                               megaHertz(1));
    };
    EXPECT_EQ(SettingsSpace::fine().size(), 496u);
    EXPECT_EQ(SettingsSpace(ladder(SettingMask::kCapacity), ladder(1))
                  .size(),
              SettingMask::kCapacity);
    EXPECT_EQ(SettingsSpace(ladder(SettingMask::kCapacity + 1), ladder(1))
                  .size(),
              SettingMask::kCapacity + 1);
    EXPECT_EQ(SettingsSpace(ladder(1024), ladder(1024)).size(),
              SettingMask::kMaxCapacity);
    EXPECT_THROW(SettingsSpace(ladder(1024), ladder(1024), ladder(2)),
                 FatalError);
    EXPECT_THROW(SettingMask(SettingMask::kMaxCapacity + 1), FatalError);
}

TEST(SettingMask, HeapTierBehavesLikeInlineTier)
{
    // A 3-domain-sized space past the inline capacity: same bit
    // semantics, word count rounded up to whole 256-bit registers.
    SettingMask mask(1500);
    EXPECT_EQ(mask.size(), 1500u);
    EXPECT_EQ(mask.wordCount(), 24u);  // ceil(1500/64)=24, already x4
    EXPECT_TRUE(mask.none());

    const std::vector<std::size_t> bits = {0, 63, 512, 513, 1023, 1499};
    for (const std::size_t k : bits)
        mask.set(k);
    EXPECT_EQ(toVector(mask), bits);
    EXPECT_EQ(mask.count(), bits.size());
    EXPECT_EQ(mask.firstSet(), 0u);
    EXPECT_TRUE(mask.test(512));
    EXPECT_FALSE(mask.test(511));

    SettingMask other(1500);
    other.set(513);
    other.set(1499);
    other.set(700);
    EXPECT_TRUE(mask.intersects(other));
    EXPECT_TRUE(mask.andInplaceAny(other));
    EXPECT_EQ(toVector(mask), (std::vector<std::size_t>{513, 1499}));

    std::vector<double> values(1500, 0.0);
    values[513] = 2.0;
    const SettingMask kept = mask.filterGE(values.data(), 1.0);
    EXPECT_EQ(toVector(kept), std::vector<std::size_t>{513});

    mask.clear();
    EXPECT_TRUE(mask.none());
    EXPECT_EQ(mask.size(), 1500u);
}

TEST(SettingMask, InlineTierKeepsHistoricalWordCount)
{
    // Small spaces must keep the fixed kWords backing so the vector
    // kernels' trip counts (and the golden bit patterns) are unchanged.
    EXPECT_EQ(SettingMask(70).wordCount(), SettingMask::kWords);
    EXPECT_EQ(SettingMask(496).wordCount(), SettingMask::kWords);
    EXPECT_EQ(SettingMask(512).wordCount(), SettingMask::kWords);
    EXPECT_EQ(SettingMask(513).wordCount(), 12u);
}

} // namespace
} // namespace mcdvfs

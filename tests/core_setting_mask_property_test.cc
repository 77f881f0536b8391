/**
 * @file
 * Property tests for the tiered SettingMask: randomized operation
 * sequences checked against a std::vector<bool> reference model.
 *
 * The mask has two storage tiers (inline up to kCapacity, heap
 * beyond), two vector back-ends (AVX2/NEON) plus the scalar fallback,
 * and word-granular entry points (setWord, filterGE) whose
 * tail-masking is easy to get subtly wrong.  Rather than enumerate
 * cases, these tests drive long random sequences of
 * set/reset/clear/andInplace/andInplaceAny/filterGE against the
 * obviously-correct bit-by-bit model and require exact agreement of
 * membership, count, firstSet, iteration order and intersects after
 * every step — at one capacity per tier boundary: 64 (single word),
 * 512 (inline tier edge) and 1500 (heap tier).
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/setting_mask.hh"

namespace mcdvfs
{
namespace
{

/** Bit-by-bit reference model of one mask. */
using Model = std::vector<bool>;

/** Assert the mask and its model agree on every observable. */
void
expectMatchesModel(const SettingMask &mask, const Model &model)
{
    ASSERT_EQ(mask.size(), model.size());

    std::size_t model_count = 0;
    std::size_t model_first = SettingMask::kNpos;
    for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(mask.test(i), model[i]) << "bit " << i;
        if (model[i]) {
            ++model_count;
            if (model_first == SettingMask::kNpos)
                model_first = i;
        }
    }
    EXPECT_EQ(mask.count(), model_count);
    EXPECT_EQ(mask.firstSet(), model_first);
    EXPECT_EQ(mask.any(), model_count > 0);
    EXPECT_EQ(mask.none(), model_count == 0);

    // Iteration yields exactly the model's set indices, ascending.
    std::vector<std::size_t> iterated;
    for (const std::size_t idx : mask)
        iterated.push_back(idx);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < model.size(); ++i)
        if (model[i])
            expected.push_back(i);
    EXPECT_EQ(iterated, expected);

    // Words beyond size() must stay zero in both tiers (the vector
    // kernels rely on it).
    for (std::size_t w = 0; w < mask.wordCount(); ++w) {
        const std::size_t base = w * 64;
        if (base >= mask.size()) {
            EXPECT_EQ(mask.word(w), 0u) << "trailing word " << w;
        } else if (mask.size() - base < 64) {
            EXPECT_EQ(mask.word(w) >> (mask.size() - base), 0u)
                << "tail bits of word " << w;
        }
    }
}

/** Random mask/model pair with ~density of the bits set. */
void
randomPair(Rng &rng, std::size_t size, double density, SettingMask &mask,
           Model &model)
{
    mask = SettingMask(size);
    model.assign(size, false);
    for (std::size_t i = 0; i < size; ++i) {
        if (rng.chance(density)) {
            mask.set(i);
            model[i] = true;
        }
    }
}

/** Random per-setting values including NaN, infinities and ties. */
std::vector<double>
randomValues(Rng &rng, std::size_t size)
{
    std::vector<double> values(size);
    for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t kind = rng.uniformInt(16);
        if (kind == 0)
            values[i] = std::numeric_limits<double>::quiet_NaN();
        else if (kind == 1)
            values[i] = std::numeric_limits<double>::infinity();
        else if (kind == 2)
            values[i] = -std::numeric_limits<double>::infinity();
        else if (kind == 3)
            values[i] = 0.5;  // deliberate exact tie with one cutoff
        else
            values[i] = 4.0 * rng.uniform() - 2.0;
    }
    return values;
}

/** One random operation applied to both mask and model. */
void
applyRandomOp(Rng &rng, std::size_t size, SettingMask &mask, Model &model)
{
    switch (rng.uniformInt(6)) {
      case 0: {  // set
        const std::size_t idx = rng.uniformInt(size);
        mask.set(idx);
        model[idx] = true;
        break;
      }
      case 1: {  // reset
        const std::size_t idx = rng.uniformInt(size);
        mask.reset(idx);
        model[idx] = false;
        break;
      }
      case 2: {  // andInplace with a random operand
        SettingMask other;
        Model other_model;
        randomPair(rng, size, rng.uniform(), other, other_model);
        mask.andInplace(other);
        for (std::size_t i = 0; i < size; ++i)
            model[i] = model[i] && other_model[i];
        // intersects() must agree with the model before the AND:
        // recompute it on the post-AND state (self-intersection).
        EXPECT_EQ(mask.intersects(other), mask.any());
        break;
      }
      case 3: {  // andInplaceAny: fused AND + emptiness report
        SettingMask other;
        Model other_model;
        randomPair(rng, size, rng.uniform(), other, other_model);
        const bool expected_intersects = mask.intersects(other);
        const bool survived = mask.andInplaceAny(other);
        bool model_any = false;
        for (std::size_t i = 0; i < size; ++i) {
            model[i] = model[i] && other_model[i];
            model_any = model_any || model[i];
        }
        EXPECT_EQ(survived, model_any);
        EXPECT_EQ(survived, expected_intersects);
        break;
      }
      case 4: {  // filterGE against the scalar compare
        const std::vector<double> values = randomValues(rng, size);
        const double cutoff = rng.chance(0.25)
                                  ? 0.5
                                  : 4.0 * rng.uniform() - 2.0;
        const SettingMask filtered = mask.filterGE(values.data(), cutoff);
        Model filtered_model(size, false);
        for (std::size_t i = 0; i < size; ++i)
            filtered_model[i] = model[i] && values[i] >= cutoff;
        expectMatchesModel(filtered, filtered_model);
        // filterGE is const: the source must be untouched.
        break;
      }
      case 5: {  // occasional full clear keeps sparse states in play
        if (rng.chance(0.1)) {
            mask.clear();
            model.assign(size, false);
        }
        break;
      }
    }
}

/** Capacities pinning each storage tier and the boundary. */
const std::size_t kCapacities[] = {64, 512, 1500};

TEST(SettingMaskProperty, RandomOpSequencesMatchModel)
{
    for (const std::size_t size : kCapacities) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Rng rng(0xABCD0000 + seed * 131 + size);
            SettingMask mask;
            Model model;
            randomPair(rng, size, 0.4, mask, model);
            expectMatchesModel(mask, model);
            for (int op = 0; op < 120; ++op) {
                applyRandomOp(rng, size, mask, model);
                ASSERT_NO_FATAL_FAILURE(
                    expectMatchesModel(mask, model))
                    << "size " << size << " seed " << seed << " op "
                    << op;
            }
        }
    }
}

TEST(SettingMaskProperty, EqualityMatchesModelEquality)
{
    for (const std::size_t size : kCapacities) {
        Rng rng(0x5EED0 + size);
        SettingMask a, b;
        Model ma, mb;
        randomPair(rng, size, 0.5, a, ma);
        b = a;
        mb = ma;
        EXPECT_EQ(a, b);
        // Flip one random bit: masks must differ; flip it back: equal.
        const std::size_t idx = rng.uniformInt(size);
        if (mb[idx])
            b.reset(idx);
        else
            b.set(idx);
        EXPECT_NE(a, b);
        if (mb[idx])
            b.set(idx);
        else
            b.reset(idx);
        EXPECT_EQ(a, b);
    }
    // Masks over different spaces never compare equal, even both empty.
    EXPECT_NE(SettingMask(64), SettingMask(65));
}

TEST(SettingMaskProperty, CopiesAreIndependentAcrossTiers)
{
    for (const std::size_t size : kCapacities) {
        Rng rng(0xC0B1E5 + size);
        SettingMask a;
        Model ma;
        randomPair(rng, size, 0.3, a, ma);
        SettingMask b = a;
        b.set(0);
        b.reset(size - 1);
        // The copy diverged; the original still matches its model.
        expectMatchesModel(a, ma);
    }
}

TEST(SettingMaskProperty, TierBoundaryConstruction)
{
    // The inline tier always carries kWords words; the heap tier a
    // whole number of 256-bit registers covering the space.
    EXPECT_EQ(SettingMask(1).wordCount(), SettingMask::kWords);
    EXPECT_EQ(SettingMask(512).wordCount(), SettingMask::kWords);
    EXPECT_EQ(SettingMask(513).wordCount(), 12u);
    EXPECT_EQ(SettingMask(1500).wordCount(), 24u);
    EXPECT_THROW(SettingMask(SettingMask::kMaxCapacity + 1), FatalError);
}

} // namespace
} // namespace mcdvfs

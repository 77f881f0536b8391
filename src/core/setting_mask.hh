/**
 * @file
 * Tiered-capacity bitset over the settings space.
 *
 * The analysis layer's sets — "which settings are feasible under this
 * budget", "which settings are in this sample's performance cluster",
 * "which settings are still common to every sample of this stable
 * region" — are all subsets of one settings space, whose size is small
 * and fixed per grid (70 coarse, 496 fine, 560 with the GPU domain).
 * SettingMask represents such a subset as 64-bit words, so membership
 * is one shift+AND, cluster size is a popcount, and the stable-region
 * growth step — previously a sorted-vector set_intersection —
 * collapses to a handful of word-wise ANDs.  This is the dense-bitmap
 * representation kernel cpufreq/devfreq code uses for frequency-table
 * masks, applied to the paper's §V/§VI machinery.
 *
 * Storage is tiered: spaces up to kCapacity (512) live in an inline
 * word array with exactly kWords words — no allocation, and every loop
 * runs the same trip count it always has, which is what keeps the
 * 1-2-word fast path bit-identical to the fixed-capacity mask
 * (core_simd_golden_test pins this).  Larger spaces (a 3-domain
 * CPU x mem x GPU cross product) spill to a heap word vector sized to
 * the space, rounded up to a whole number of 256-bit registers so the
 * AVX2 kernels never need a scalar tail.  The largest tier holds
 * kMaxCapacity bits, the SettingsSpace::kMaxSettings bound every space
 * is checked against when it is built, so a mask over any space's
 * settings always fits.
 */

#ifndef MCDVFS_CORE_SETTING_MASK_HH
#define MCDVFS_CORE_SETTING_MASK_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "dvfs/settings_space.hh"

namespace mcdvfs
{

/** Tiered-capacity bitset of setting indices, one bit per setting. */
class SettingMask
{
  public:
    /** Largest space the inline (no-allocation) tier holds. */
    static constexpr std::size_t kCapacity = 512;
    /** Inline 64-bit words backing the bits of the inline tier. */
    static constexpr std::size_t kWords = kCapacity / 64;
    /** Largest representable settings space across both tiers. */
    static constexpr std::size_t kMaxCapacity =
        SettingsSpace::kMaxSettings;
    /** firstSet() result when no bit is set. */
    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

    /** Empty mask over an empty (size-0) space. */
    SettingMask() = default;

    /**
     * Empty mask over a @c size -setting space.
     *
     * @throws FatalError when @c size exceeds kMaxCapacity
     */
    explicit SettingMask(std::size_t size)
        : size_(size)
    {
        if (size > kMaxCapacity) {
            fatal("SettingMask: settings space of ", size,
                  " exceeds the mask capacity of ", kMaxCapacity);
        }
        if (size > kCapacity)
            heap_.assign(heapWords(size), 0);
    }

    /** Number of settings in the space (bit positions in use). */
    std::size_t size() const { return size_; }

    /**
     * Backing words in use: always kWords for the inline tier (so the
     * small-space loops keep their historical trip count), the
     * rounded-up heap size beyond it.  Trailing words past size() are
     * zero in both tiers.
     */
    std::size_t
    wordCount() const
    {
        return heap_.empty() ? kWords : heap_.size();
    }

    void
    set(std::size_t idx)
    {
        MCDVFS_DEBUG_ASSERT(idx < size_, "mask index out of range");
        words()[idx >> 6] |= (std::uint64_t{1} << (idx & 63));
    }

    void
    reset(std::size_t idx)
    {
        MCDVFS_DEBUG_ASSERT(idx < size_, "mask index out of range");
        words()[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    bool
    test(std::size_t idx) const
    {
        MCDVFS_DEBUG_ASSERT(idx < size_, "mask index out of range");
        return (words()[idx >> 6] >> (idx & 63)) & 1;
    }

    /** Clear every bit (size is kept). */
    void
    clear()
    {
        if (heap_.empty())
            inline_.fill(0);
        else
            std::fill(heap_.begin(), heap_.end(), 0);
    }

    /** Word-wise intersection: this &= other. */
    void
    andInplace(const SettingMask &other)
    {
        MCDVFS_DEBUG_ASSERT(size_ == other.size_,
                            "mask spaces differ");
        std::uint64_t *w = words();
        const std::uint64_t *o = other.words();
        const std::size_t n = wordCount();
        for (std::size_t i = 0; i < n; ++i)
            w[i] &= o[i];
    }

    /**
     * Fused stable-region growth step: this &= other, reporting
     * whether any bit survived.  One pass over the words instead of
     * andInplace() + any(); the AVX2 path runs the AND 256 bits at a
     * time and folds the emptiness test into one vptest.
     */
    bool
    andInplaceAny(const SettingMask &other)
    {
        MCDVFS_DEBUG_ASSERT(size_ == other.size_,
                            "mask spaces differ");
        std::uint64_t *w = words();
        const std::uint64_t *o = other.words();
        const std::size_t n = wordCount();
#if MCDVFS_SIMD_AVX2
        if (simd::haveAvx2()) {
            // Both tiers hold whole 256-bit registers: the inline
            // array by the static_assert, the heap tier by
            // heapWords() rounding up.
            static_assert(kWords % 4 == 0, "whole-register words");
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t i = 0; i < n; i += 4) {
                const __m256i a = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(&w[i]));
                const __m256i b = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(&o[i]));
                const __m256i anded = _mm256_and_si256(a, b);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(&w[i]), anded);
                acc = _mm256_or_si256(acc, anded);
            }
            return !_mm256_testz_si256(acc, acc);
        }
#endif
        std::uint64_t survived = 0;
        for (std::size_t i = 0; i < n; ++i) {
            w[i] &= o[i];
            survived |= w[i];
        }
        return survived != 0;
    }

    /** Raw backing word @c w (tests and digests). */
    std::uint64_t
    word(std::size_t w) const
    {
        MCDVFS_DEBUG_ASSERT(w < wordCount(), "mask word out of range");
        return words()[w];
    }

    /**
     * Overwrite backing word @c w with @c bits (vector kernels build
     * whole predicate words at once).  Bits at or above size() must be
     * zero.
     */
    void
    setWord(std::size_t w, std::uint64_t bits)
    {
        MCDVFS_DEBUG_ASSERT(w < wordCount(), "mask word out of range");
        MCDVFS_DEBUG_ASSERT(
            w * 64 >= size_ ? bits == 0
                            : size_ - w * 64 >= 64 ||
                                  (bits >> (size_ - w * 64)) == 0,
            "mask word bits beyond the settings space");
        words()[w] = bits;
    }

    /** Number of set bits (cluster size). */
    std::size_t
    count() const
    {
        const std::uint64_t *w = words();
        const std::size_t n = wordCount();
        std::size_t total = 0;
        for (std::size_t i = 0; i < n; ++i)
            total += static_cast<std::size_t>(std::popcount(w[i]));
        return total;
    }

    /** Lowest set index, or kNpos when empty. */
    std::size_t
    firstSet() const
    {
        const std::uint64_t *w = words();
        const std::size_t n = wordCount();
        for (std::size_t i = 0; i < n; ++i) {
            if (w[i])
                return i * 64 +
                       static_cast<std::size_t>(
                           std::countr_zero(w[i]));
        }
        return kNpos;
    }

    bool
    any() const
    {
        const std::uint64_t *w = words();
        const std::size_t n = wordCount();
        for (std::size_t i = 0; i < n; ++i)
            if (w[i])
                return true;
        return false;
    }

    bool none() const { return !any(); }

    /** True when this and @c other share at least one set bit. */
    bool
    intersects(const SettingMask &other) const
    {
        MCDVFS_DEBUG_ASSERT(size_ == other.size_,
                            "mask spaces differ");
        const std::uint64_t *w = words();
        const std::uint64_t *o = other.words();
        const std::size_t n = wordCount();
        for (std::size_t i = 0; i < n; ++i)
            if (w[i] & o[i])
                return true;
        return false;
    }

    /**
     * Set bits of this mask whose @c values entry is at least
     * @c cutoff.  Built word-wise and branchless — one compare per
     * lane folded into the word — so cutoff filtering never walks the
     * set bits one by one.  @c values must hold size() entries.
     *
     * The AVX2/NEON paths predicate 4/2 lanes per compare and movemask
     * the results into the keep word; >= maps to the ordered-quiet GE
     * predicate, which matches the scalar compare exactly (both are
     * false on NaN), so the filtered mask is bit-identical to the
     * scalar loop on any input.
     */
    SettingMask
    filterGE(const double *values, double cutoff) const
    {
#if MCDVFS_SIMD_AVX2
        if (simd::haveAvx2())
            return filterGEAvx2(values, cutoff);
#endif
#if MCDVFS_SIMD_NEON
        if (simd::haveNeon())
            return filterGENeon(values, cutoff);
#endif
        SettingMask out(size_);
        const std::uint64_t *w = words();
        std::uint64_t *ow = out.words();
        for (std::size_t i = 0; i * 64 < size_; ++i) {
            const std::size_t base = i * 64;
            const std::size_t lanes = std::min<std::size_t>(
                64, size_ - base);
            std::uint64_t keep = 0;
            for (std::size_t j = 0; j < lanes; ++j) {
                keep |= static_cast<std::uint64_t>(
                            values[base + j] >= cutoff)
                        << j;
            }
            ow[i] = w[i] & keep;
        }
        return out;
    }

    bool
    operator==(const SettingMask &other) const
    {
        if (size_ != other.size_)
            return false;
        const std::uint64_t *w = words();
        const std::uint64_t *o = other.words();
        return std::equal(w, w + wordCount(), o);
    }

    bool
    operator!=(const SettingMask &other) const
    {
        return !(*this == other);
    }

    /** Forward iterator over set-bit indices, ascending. */
    class Iterator
    {
      public:
        Iterator(const SettingMask *mask, std::size_t word)
            : mask_(mask), word_(word)
        {
            if (word_ < mask_->wordCount())
                bits_ = mask_->words()[word_];
            advance();
        }

        std::size_t
        operator*() const
        {
            return word_ * 64 +
                   static_cast<std::size_t>(std::countr_zero(bits_));
        }

        Iterator &
        operator++()
        {
            bits_ &= bits_ - 1;  // drop the lowest set bit
            advance();
            return *this;
        }

        bool
        operator!=(const Iterator &other) const
        {
            return word_ != other.word_ || bits_ != other.bits_;
        }

      private:
        /** Skip to the next word holding a set bit. */
        void
        advance()
        {
            const std::size_t n = mask_->wordCount();
            while (!bits_ && word_ < n) {
                ++word_;
                bits_ = word_ < n ? mask_->words()[word_] : 0;
            }
        }

        const SettingMask *mask_;
        std::size_t word_;
        std::uint64_t bits_ = 0;
    };

    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(this, wordCount()); }

  private:
    /** Heap tier word count: whole 256-bit registers over the space. */
    static std::size_t
    heapWords(std::size_t size)
    {
        const std::size_t raw = (size + 63) / 64;
        return (raw + 3) & ~std::size_t{3};
    }

    const std::uint64_t *
    words() const
    {
        return heap_.empty() ? inline_.data() : heap_.data();
    }

    std::uint64_t *
    words()
    {
        return heap_.empty() ? inline_.data() : heap_.data();
    }

#if MCDVFS_SIMD_AVX2
    SettingMask
    filterGEAvx2(const double *values, double cutoff) const
    {
        SettingMask out(size_);
        const std::uint64_t *w = words();
        std::uint64_t *ow = out.words();
        const __m256d vcut = _mm256_set1_pd(cutoff);
        for (std::size_t i = 0; i * 64 < size_; ++i) {
            const std::size_t base = i * 64;
            const std::size_t lanes = std::min<std::size_t>(
                64, size_ - base);
            std::uint64_t keep = 0;
            std::size_t j = 0;
            for (; j + 4 <= lanes; j += 4) {
                const __m256d v =
                    _mm256_loadu_pd(values + base + j);
                const __m256d ge =
                    _mm256_cmp_pd(v, vcut, _CMP_GE_OQ);
                keep |= static_cast<std::uint64_t>(
                            _mm256_movemask_pd(ge))
                        << j;
            }
            for (; j < lanes; ++j) {
                keep |= static_cast<std::uint64_t>(
                            values[base + j] >= cutoff)
                        << j;
            }
            ow[i] = w[i] & keep;
        }
        return out;
    }
#endif

#if MCDVFS_SIMD_NEON
    SettingMask
    filterGENeon(const double *values, double cutoff) const
    {
        SettingMask out(size_);
        const std::uint64_t *w = words();
        std::uint64_t *ow = out.words();
        const float64x2_t vcut = vdupq_n_f64(cutoff);
        for (std::size_t i = 0; i * 64 < size_; ++i) {
            const std::size_t base = i * 64;
            const std::size_t lanes = std::min<std::size_t>(
                64, size_ - base);
            std::uint64_t keep = 0;
            std::size_t j = 0;
            for (; j + 2 <= lanes; j += 2) {
                const uint64x2_t ge =
                    vcgeq_f64(vld1q_f64(values + base + j), vcut);
                keep |= (vgetq_lane_u64(ge, 0) & 1) << j;
                keep |= (vgetq_lane_u64(ge, 1) & 1) << (j + 1);
            }
            for (; j < lanes; ++j) {
                keep |= static_cast<std::uint64_t>(
                            values[base + j] >= cutoff)
                        << j;
            }
            ow[i] = w[i] & keep;
        }
        return out;
    }
#endif

    /** Inline tier (size_ <= kCapacity): fixed kWords words. */
    std::array<std::uint64_t, kWords> inline_{};
    /** Heap tier (size_ > kCapacity): heapWords(size_) words. */
    std::vector<std::uint64_t> heap_;
    std::size_t size_ = 0;
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_SETTING_MASK_HH

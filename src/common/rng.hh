/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload traces must be exactly reproducible across runs and across
 * machines, so mcdvfs does not use std::mt19937 (whose distributions
 * are implementation-defined).  Rng implements xoshiro256** seeded via
 * SplitMix64, with distribution helpers defined by this library.
 *
 * The trace generator reads its draws in blocks (fill(), or the
 * grouped fill() for several generators at once) and decodes them
 * with the rules of uniform53Threshold() and Bound, so the per-draw
 * rules are defined here, once.
 */

#ifndef MCDVFS_COMMON_RNG_HH
#define MCDVFS_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace mcdvfs
{

/** Deterministic xoshiro256** generator with convenience draws. */
class Rng
{
  public:
    /**
     * A uniformInt() bound with its rejection threshold computed once,
     * so that loops drawing from one range many times divide once per
     * draw instead of twice.
     */
    class Bound
    {
      public:
        /** @param bound exclusive upper end of the range, > 0 */
        explicit Bound(std::uint64_t bound);

        /**
         * True when uniformInt() keeps raw draw @c r; it rejects the
         * draw and draws again otherwise.
         */
        bool accepts(std::uint64_t r) const { return r >= threshold_; }

        /** The value uniformInt() returns for an accepted draw @c r. */
        std::uint64_t value(std::uint64_t r) const { return r % bound_; }

      private:
        std::uint64_t bound_;
        /** Draws below this are rejected: (2^64 - bound) % bound. */
        std::uint64_t threshold_;
    };

    /** Seed deterministically from a 64-bit seed via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /**
     * Write the next @c n raw draws to @c out: the same sequence as
     * @c n next() calls, with the state held in locals for the whole
     * loop (a store through @c out could otherwise alias it, forcing a
     * reload after every draw).
     */
    void fill(std::uint64_t *out, std::size_t n);

    /** Generators one vector step of the grouped fill() advances. */
    static constexpr std::size_t kLanes = 4;

    /**
     * fill() for several generators at once: write the next @c n draws
     * of *gens[i] to outs[i], for every i, each the same sequence as
     * gens[i]->fill(outs[i], n).  The generators step together, kLanes
     * to a vector (GCC vector extensions), a lone last one alone.  The
     * generators must be distinct; @c outs has one entry per generator.
     */
    static void fill(std::span<Rng *const> gens,
                     std::span<std::uint64_t *const> outs, std::size_t n);

    /**
     * The 53 high bits of one draw: uniform() is exactly
     * uniform53() * 2^-53, so a probability test can compare integers
     * against uniform53Threshold() instead.
     */
    std::uint64_t uniform53() { return next() >> 11; }

    /**
     * The threshold T with uniform53() < T exactly when the same draw
     * gives uniform() < p: ceil(p * 2^53), clamped to [0, 2^53].
     */
    static std::uint64_t uniform53Threshold(double p);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(uniform53()) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) without modulo bias; bound > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        return uniformInt(Bound(bound));
    }

    /** uniformInt() over a precomputed bound. */
    std::uint64_t
    uniformInt(const Bound &bound)
    {
        // Rejection sampling to avoid modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (bound.accepts(r))
                return bound.value(r);
        }
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /**
     * Bernoulli draw: true with probability p (clamped to [0,1]).
     * Consumes no draw when p <= 0 or p >= 1.
     */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p in (0, 1]; returns 0 when p >= 1.
     */
    std::uint64_t geometric(double p);

    /** Standard normal draw (Box-Muller, deterministic). */
    double gaussian();

    /** Fork a child generator whose stream is independent of ours. */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace mcdvfs

#endif // MCDVFS_COMMON_RNG_HH

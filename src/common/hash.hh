/**
 * @file
 * Shared FNV-1a hashing primitives.
 *
 * Two hot paths hash with FNV-1a and must keep doing it with the same
 * constants forever: the deterministic per-cell noise seed in the grid
 * kernel (sim/grid_runner.cc) and the content fingerprints that key the
 * grid cache (PhaseSpec, WorkloadProfile, SettingsSpace and
 * svc/fingerprint.cc).  All build on these primitives so the constants
 * and the mixing steps exist exactly once.
 *
 * Two mixing granularities are provided on purpose:
 *  - byte-wise steps (fnv1aByte / fnv1aWordBytes / fnv1aString) give
 *    the avalanche quality fingerprints need;
 *  - whole-word steps (fnv1aMixWord) are the historical cell-seed mix,
 *    kept bit-compatible so stored grids and goldens stay valid.
 */

#ifndef MCDVFS_COMMON_HASH_HH
#define MCDVFS_COMMON_HASH_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace mcdvfs
{

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** One FNV-1a step over a single byte. */
constexpr std::uint64_t
fnv1aByte(std::uint64_t hash, std::uint8_t byte)
{
    return (hash ^ static_cast<std::uint64_t>(byte)) * kFnvPrime;
}

/**
 * One xor-multiply step over a whole 64-bit word (not byte-wise).
 * This is the cell-seed mix; it is weaker than byte-wise FNV-1a but
 * must stay bit-compatible with existing seeds.
 */
constexpr std::uint64_t
fnv1aMixWord(std::uint64_t hash, std::uint64_t word)
{
    return (hash ^ word) * kFnvPrime;
}

/** FNV-1a over the eight bytes of a word, low to high. */
constexpr std::uint64_t
fnv1aWordBytes(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i)
        hash = fnv1aByte(hash, static_cast<std::uint8_t>(word >> (8 * i)));
    return hash;
}

/** FNV-1a over the bytes of a string (no length terminator). */
constexpr std::uint64_t
fnv1aString(std::uint64_t hash, std::string_view text)
{
    for (const char c : text)
        hash = fnv1aByte(hash, static_cast<std::uint8_t>(c));
    return hash;
}

/**
 * Incremental FNV-1a hasher over typed fields — the one content hash
 * every input fingerprint is built from.  Fields are hashed one by one
 * (never raw struct bytes: padding is indeterminate), with doubles by
 * bit pattern so keys are exact, not tolerance-based.
 */
class HashBuilder
{
  public:
    /** @param seed chaining basis, the FNV offset basis by default */
    explicit HashBuilder(std::uint64_t seed = kFnvOffsetBasis)
        : hash_(seed)
    {
    }

    HashBuilder &
    add(std::uint64_t value)
    {
        hash_ = fnv1aWordBytes(hash_, value);
        return *this;
    }

    /**
     * Bit-pattern hash, with -0.0 normalized to +0.0 so the two zero
     * encodings (equal everywhere else) hash equally.
     */
    HashBuilder &
    add(double value)
    {
        if (value == 0.0)
            value = 0.0;
        return add(std::bit_cast<std::uint64_t>(value));
    }

    HashBuilder &
    add(bool value)
    {
        hash_ = fnv1aMixWord(hash_, value ? 1u : 0u);
        return *this;
    }

    /** The bytes, then the length, so ("ab","c") and ("a","bc") differ. */
    HashBuilder &
    add(const std::string &value)
    {
        hash_ = fnv1aString(hash_, value);
        return add(static_cast<std::uint64_t>(value.size()));
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_;
};

} // namespace mcdvfs

#endif // MCDVFS_COMMON_HASH_HH

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
 *
 * Bulk bytes — snapshot files of megabytes — are checksummed with
 * checksum64 instead, which reads eight bytes per step over four
 * independent lanes rather than one byte per dependent multiply.
 */

#ifndef MCDVFS_COMMON_HASH_HH
#define MCDVFS_COMMON_HASH_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/binio.hh"

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

namespace detail
{

/** @name checksum64 steps (xxHash64's constants and structure). */
///@{
inline constexpr std::uint64_t kChecksumPrime1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t kChecksumPrime2 = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t kChecksumPrime3 = 0x165667b19e3779f9ull;
inline constexpr std::uint64_t kChecksumPrime4 = 0x85ebca77c2b2ae63ull;
inline constexpr std::uint64_t kChecksumPrime5 = 0x27d4eb2f165667c5ull;

/** One lane absorbs one word. */
constexpr std::uint64_t
checksumRound(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kChecksumPrime2, 31) * kChecksumPrime1;
}

/** Fold one finished lane into the merged state. */
constexpr std::uint64_t
checksumMerge(std::uint64_t hash, std::uint64_t lane)
{
    return (hash ^ checksumRound(0, lane)) * kChecksumPrime1 +
           kChecksumPrime4;
}

/** Final mix: every input bit reaches every output bit. */
constexpr std::uint64_t
checksumAvalanche(std::uint64_t hash)
{
    hash ^= hash >> 33;
    hash *= kChecksumPrime2;
    hash ^= hash >> 29;
    hash *= kChecksumPrime3;
    hash ^= hash >> 32;
    return hash;
}
///@}

} // namespace detail

/**
 * 64-bit checksum of a byte string, the snapshot store's integrity
 * check (daemon/snapshot_store.hh); @c seed chains one call into the
 * next, so the store sums key then payload without joining them.
 *
 * xxHash64's structure and constants: four independent lanes each
 * absorb one little-endian 64-bit word per 32-byte stripe, so the
 * multiplies overlap instead of forming one dependent chain; the
 * lanes merge into one word; the last 0–31 bytes go in as 8-, 4- and
 * 1-byte steps; a final avalanche mixes the result.  For a fixed
 * input word every step is a bijection of the running state (an add
 * or xor, a rotation, a multiply by an odd constant), so two states
 * that differ stay different, and the rotations carry each multiply's
 * high bits back into the low bits.
 *
 * The value is part of the on-disk snapshot format;
 * Checksum.MatchesTheGolden pins it.
 */
inline std::uint64_t
checksum64(std::string_view bytes, std::uint64_t seed = 0)
{
    using namespace detail;
    const char *p = bytes.data();
    const char *const end = p + bytes.size();
    std::uint64_t hash;
    if (bytes.size() >= 32) {
        std::uint64_t v1 = seed + kChecksumPrime1 + kChecksumPrime2;
        std::uint64_t v2 = seed + kChecksumPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kChecksumPrime1;
        for (; end - p >= 32; p += 32) {
            v1 = checksumRound(v1, loadLittleEndian<std::uint64_t>(p));
            v2 = checksumRound(v2, loadLittleEndian<std::uint64_t>(p + 8));
            v3 = checksumRound(v3,
                               loadLittleEndian<std::uint64_t>(p + 16));
            v4 = checksumRound(v4,
                               loadLittleEndian<std::uint64_t>(p + 24));
        }
        hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
               std::rotl(v4, 18);
        hash = checksumMerge(hash, v1);
        hash = checksumMerge(hash, v2);
        hash = checksumMerge(hash, v3);
        hash = checksumMerge(hash, v4);
    } else {
        hash = seed + kChecksumPrime5;
    }
    hash += bytes.size();

    for (; end - p >= 8; p += 8) {
        hash ^= checksumRound(0, loadLittleEndian<std::uint64_t>(p));
        hash = std::rotl(hash, 27) * kChecksumPrime1 + kChecksumPrime4;
    }
    if (end - p >= 4) {
        hash ^= loadLittleEndian<std::uint32_t>(p) * kChecksumPrime1;
        hash = std::rotl(hash, 23) * kChecksumPrime2 + kChecksumPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        hash ^= static_cast<std::uint8_t>(*p) * kChecksumPrime5;
        hash = std::rotl(hash, 11) * kChecksumPrime1;
    }
    return checksumAvalanche(hash);
}

} // namespace mcdvfs

#endif // MCDVFS_COMMON_HASH_HH

/**
 * @file
 * checksum64 tests: pinned values, so the snapshot store's on-disk
 * checksum cannot drift silently, and single-bit sensitivity over
 * every lane and tail path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/binio.hh"
#include "common/hash.hh"

namespace mcdvfs
{
namespace
{

/** @c size bytes of a fixed, non-repeating-per-word pattern. */
std::string
pattern(std::size_t size)
{
    std::string bytes(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
        bytes[i] = static_cast<char>((i * 157 + 11) & 0xff);
    return bytes;
}

TEST(Checksum, MatchesTheGolden)
{
    // The empty input, "abc" and the 39-byte sentence are xxHash64's
    // published values (seed 0): checksum64 is that function.
    EXPECT_EQ(checksum64(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(checksum64("abc"), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(checksum64("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ull);

    // Lengths around every path: byte tail only (1, 7), one word (8),
    // the longest input without a stripe (31), exactly one stripe
    // (32), one stripe plus a byte (33), and many stripes (1 MiB).
    EXPECT_EQ(checksum64(pattern(0)), 0xef46db3751d8e999ull);
    EXPECT_EQ(checksum64(pattern(1)), 0xf592c0c7639c4cb6ull);
    EXPECT_EQ(checksum64(pattern(7)), 0x18440deef7933255ull);
    EXPECT_EQ(checksum64(pattern(8)), 0x2727322307c199c5ull);
    EXPECT_EQ(checksum64(pattern(31)), 0xbe2ce27f661c4bd5ull);
    EXPECT_EQ(checksum64(pattern(32)), 0xc920c0d7658c01acull);
    EXPECT_EQ(checksum64(pattern(33)), 0x43eeef74e4d46df4ull);
    EXPECT_EQ(checksum64(pattern(1u << 20)), 0x3ba888245a0eb0dbull);

    // The snapshot container's chain: a 24-byte grid key, then the
    // payload seeded with the key's sum.
    ByteWriter key;
    key.u64(0x0123456789abcdefull);
    key.u64(11);
    key.u64(22);
    EXPECT_EQ(checksum64(pattern(1000), checksum64(key.bytes())),
              0x47fbb257af7c2020ull);
}

TEST(Checksum, EveryBitFlipChangesTheSum)
{
    // 257 bytes: eight stripes through all four lanes, then a one-byte
    // tail.  45 bytes: one stripe, then one each of the 8-, 4- and
    // 1-byte tail steps.
    for (const std::size_t size : {257u, 45u}) {
        std::string bytes = pattern(size);
        const std::uint64_t pristine = checksum64(bytes);
        for (std::size_t bit = 0; bit < size * 8; ++bit) {
            const char mask = static_cast<char>(1 << (bit % 8));
            bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ mask);
            EXPECT_NE(checksum64(bytes), pristine)
                << size << " bytes, bit " << bit;
            bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ mask);
        }
        EXPECT_EQ(checksum64(bytes), pristine);
    }
}

} // namespace
} // namespace mcdvfs

/**
 * @file
 * Randomized robustness tests for the binary grid body loader
 * (readGridBody, through test::gridFromBytes).
 *
 * A body read off disk can be truncated (crash mid-copy) or corrupted
 * (bit rot, torn write) at any byte.  The body must run to its end, so
 * every truncation and every trailing byte raises FatalError with a
 * diagnostic — never UB, never a silently partial grid.  The body
 * carries no checksum (its container, the snapshot store, does), so a
 * flipped byte may load as a different grid; for those the contract
 * is only that nothing but FatalError escapes.  These tests take
 * pristine two-domain (format 1) and three-domain (format 2) bytes
 * and replay them through truncation at every leading byte plus
 * sampled lengths, and single-byte XOR corruption at sampled offsets;
 * the sanitize script runs this binary under ASan/UBSan so "never UB"
 * is machine-checked, not asserted.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/grid_io.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

/** steadyWorkload over the 560-setting three-domain space. */
const MeasuredGrid &
gpuGrid()
{
    static const MeasuredGrid grid = [] {
        GridRunner runner(test::fastSystemConfig());
        return runner.run(test::steadyWorkload(),
                          SettingsSpace::coarse3());
    }();
    return grid;
}

/** Assert the loader throws (and only throws) on @c bytes. */
void
expectRejected(const std::string &bytes, const char *what)
{
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError) << what;
}

void
fuzzSnapshot(const MeasuredGrid &grid, std::uint64_t seed)
{
    const std::string pristine = test::gridBytes(grid);
    ASSERT_GT(pristine.size(), 64u);

    // The pristine bytes round-trip bit-identically (the baseline the
    // rejections below are measured against).
    EXPECT_EQ(test::gridBytes(test::gridFromBytes(pristine)), pristine);

    // Truncation at every leading byte: the format word, the workload
    // name, the sample and instruction counts and the first ladder
    // words all live in the first 64 bytes.
    for (std::size_t len = 0; len < 64; ++len)
        expectRejected(pristine.substr(0, len), "header truncation");

    // Truncation at sampled body lengths (every prefix would be
    // quadratic in body size; 256 random cuts plus the last bytes
    // cover the interesting boundaries).
    Rng rng(seed);
    for (int i = 0; i < 256; ++i) {
        const std::size_t len = 64 + rng.uniformInt(pristine.size() - 64);
        expectRejected(pristine.substr(0, len), "payload truncation");
    }
    for (std::size_t back = 1; back <= 8; ++back) {
        expectRejected(pristine.substr(0, pristine.size() - back),
                       "tail truncation");
    }

    // Single-byte corruption at sampled offsets: a damaged format
    // word, count or marker is rejected, while a damaged value may
    // load as a different grid (the store's checksum rejects those).
    // Either way nothing but FatalError may escape.
    for (int i = 0; i < 256; ++i) {
        std::string corrupt = pristine;
        const std::size_t pos = rng.uniformInt(corrupt.size());
        corrupt[pos] = static_cast<char>(
            corrupt[pos] ^
            static_cast<char>(1 + rng.uniformInt(255)));
        try {
            test::gridFromBytes(corrupt);
        } catch (const FatalError &) {
        }
    }

    // The body must run to its end: trailing bytes are rejected, not
    // ignored.
    expectRejected(pristine + std::string(1, '\0'), "one trailing byte");
    expectRejected(pristine + std::string(16, '\0'), "trailing bytes");
}

TEST(GridIoFuzz, TwoDomainSnapshotNeverLoadsMalformedInput)
{
    fuzzSnapshot(test::phasedGrid(), 0x6B1D);
}

TEST(GridIoFuzz, ThreeDomainSnapshotNeverLoadsMalformedInput)
{
    fuzzSnapshot(gpuGrid(), 0x6B2D);
}

TEST(GridIoFuzz, VersionSkewIsRejectedNotMisparsed)
{
    // A format-2 (three-domain) body whose format word is rewritten to
    // 1 parses with the wrong cell width; the body's checks must
    // reject it rather than shear the columns.
    std::string bytes = test::gridBytes(gpuGrid());
    ASSERT_EQ(bytes[0], 2);  // format word, little-endian low byte
    bytes[0] = 1;
    expectRejected(bytes, "format 2 masqueraded as 1");

    // Unknown future format.
    std::string future = test::gridBytes(test::phasedGrid());
    future[0] = 0x7e;
    expectRejected(future, "future format");
}

TEST(GridIoFuzz, TextFormatRejectsTruncationAtLineGranularity)
{
    // The text format is line-oriented: dropping trailing lines must
    // fail the loader's completeness checks, not yield a partial grid.
    const std::string text = saveGridToString(test::phasedGrid());
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n';
    ASSERT_GT(lines, 8u);

    // The pristine text loads; every truncation below must not.
    EXPECT_EQ(loadGridFromString(text).sampleCount(),
              test::phasedGrid().sampleCount());
    std::size_t cut = text.size() - 1;  // skip the final newline
    for (std::size_t dropped = 1; dropped <= 32; ++dropped) {
        cut = text.find_last_of('\n', cut - 1);
        if (cut == std::string::npos || cut == 0)
            break;
        EXPECT_THROW(loadGridFromString(text.substr(0, cut + 1)),
                     FatalError)
            << "dropped " << dropped << " lines";
    }
}

} // namespace
} // namespace mcdvfs

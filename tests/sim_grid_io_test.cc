/**
 * @file
 * Unit tests for grid serialization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/inefficiency.hh"
#include "sim/grid_io.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

TEST(GridIo, RoundTripPreservesEverything)
{
    const MeasuredGrid &original = test::phasedGrid();
    const MeasuredGrid loaded =
        loadGridFromString(saveGridToString(original));

    EXPECT_EQ(loaded.workload(), original.workload());
    ASSERT_EQ(loaded.sampleCount(), original.sampleCount());
    ASSERT_EQ(loaded.settingCount(), original.settingCount());
    EXPECT_EQ(loaded.instructionsPerSample(),
              original.instructionsPerSample());

    for (std::size_t s = 0; s < original.sampleCount(); ++s) {
        for (std::size_t k = 0; k < original.settingCount(); ++k) {
            ASSERT_DOUBLE_EQ(loaded.cell(s, k).seconds,
                             original.cell(s, k).seconds);
            ASSERT_DOUBLE_EQ(loaded.cell(s, k).cpuEnergy,
                             original.cell(s, k).cpuEnergy);
            ASSERT_DOUBLE_EQ(loaded.cell(s, k).memEnergy,
                             original.cell(s, k).memEnergy);
            ASSERT_DOUBLE_EQ(loaded.cell(s, k).busyFrac,
                             original.cell(s, k).busyFrac);
        }
    }
}

TEST(GridIo, RoundTripPreservesProfiles)
{
    const MeasuredGrid &original = test::phasedGrid();
    const MeasuredGrid loaded =
        loadGridFromString(saveGridToString(original));
    ASSERT_TRUE(loaded.hasProfiles());
    for (std::size_t s = 0; s < original.sampleCount(); ++s) {
        EXPECT_DOUBLE_EQ(loaded.profile(s).l1Mpki,
                         original.profile(s).l1Mpki);
        EXPECT_DOUBLE_EQ(loaded.profile(s).baseCpi,
                         original.profile(s).baseCpi);
        EXPECT_EQ(loaded.profile(s).phaseName,
                  original.profile(s).phaseName);
    }
}

TEST(GridIo, RoundTripPreservesLadders)
{
    const MeasuredGrid &original = test::phasedGrid();
    const MeasuredGrid loaded =
        loadGridFromString(saveGridToString(original));
    ASSERT_EQ(loaded.space().cpuLadder().size(),
              original.space().cpuLadder().size());
    for (std::size_t i = 0; i < loaded.space().cpuLadder().size(); ++i)
        EXPECT_DOUBLE_EQ(loaded.space().cpuLadder().at(i),
                         original.space().cpuLadder().at(i));
}

TEST(GridIo, AnalysesAgreeAfterRoundTrip)
{
    const MeasuredGrid &original = test::phasedGrid();
    const MeasuredGrid loaded =
        loadGridFromString(saveGridToString(original));
    InefficiencyAnalysis a(original);
    InefficiencyAnalysis b(loaded);
    EXPECT_DOUBLE_EQ(a.eminTotal(), b.eminTotal());
    EXPECT_DOUBLE_EQ(a.maxRunInefficiency(), b.maxRunInefficiency());
}

TEST(GridIo, LoadedGridServesConcurrentReaders)
{
    // A loaded grid is finished when loadGrid returns, so threads can
    // share it with no writer left (scripts/sanitize.sh runs this
    // under TSan).
    const MeasuredGrid &original = test::phasedGrid();
    const auto loaded = std::make_shared<const MeasuredGrid>(
        loadGridFromString(saveGridToString(original)));
    const std::size_t samples = original.sampleCount();
    const std::uint64_t digest = original.prefixDigest(samples);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            const InefficiencyAnalysis analysis(*loaded);
            for (std::size_t s = 0; s < samples; ++s) {
                if (analysis.sampleEmin(s) != original.sampleEmin(s) ||
                    analysis.sampleSlowest(s) != original.sampleSlowest(s))
                    ++mismatches;
            }
            if (loaded->prefixDigest(samples) != digest)
                ++mismatches;
        });
    }
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(GridIo, RejectsBadHeader)
{
    EXPECT_THROW(loadGridFromString("not a grid\n"), FatalError);
    EXPECT_THROW(loadGridFromString("mcdvfs-grid v999\nworkload x\n"),
                 FatalError);
}

TEST(GridIo, RejectsTruncatedInput)
{
    std::string text = saveGridToString(test::phasedGrid());
    text.resize(text.size() / 2);
    // Either a malformed line or a cell-count mismatch must be
    // reported as a fatal parse error.
    EXPECT_THROW(loadGridFromString(text), FatalError);
}

TEST(GridIo, RejectsOutOfRangeCell)
{
    EXPECT_THROW(
        loadGridFromString("mcdvfs-grid v1\n"
                           "workload x\n"
                           "samples 1 instructions 10\n"
                           "cpu 100\n"
                           "mem 200\n"
                           "cell 5 0 1 1 1 1 0\n"),
        FatalError);
}

// Binary grid layout (test::gridBytes, the payload of a store grid
// snapshot): u32 body format word at offset 0, then the grid_io body,
// which starts with the u32 length of the workload name.

TEST(GridIoBinary, BytesMatchTheGolden)
{
    // The binary grid body is a file format: pin its bytes, two-domain
    // (format 1) and three-domain (format 2), on grids whose values
    // involve no simulation.
    const std::string two =
        test::gridBytes(test::handGrid(SettingsSpace::coarse(), 3));
    EXPECT_EQ(two.size(), 8882u);
    EXPECT_EQ(fnv1aString(kFnvOffsetBasis, two), 0x1d7ed3ec613390fbull);
    const std::string three =
        test::gridBytes(test::handGrid(SettingsSpace::coarse3(), 3));
    EXPECT_EQ(three.size(), 81238u);
    EXPECT_EQ(fnv1aString(kFnvOffsetBasis, three), 0x64cf4d70cb2c37fdull);
}

TEST(GridIoBinary, RoundTripIsBitIdentical)
{
    const MeasuredGrid &original = test::phasedGrid();
    const std::string bytes = test::gridBytes(original);
    const MeasuredGrid loaded = test::gridFromBytes(bytes);

    // Doubles travel by bit pattern, so re-serializing the loaded grid
    // must reproduce the bytes exactly.
    EXPECT_EQ(test::gridBytes(loaded), bytes);

    EXPECT_EQ(loaded.workload(), original.workload());
    EXPECT_EQ(loaded.sampleCount(), original.sampleCount());
    EXPECT_EQ(loaded.settingCount(), original.settingCount());
    ASSERT_TRUE(loaded.hasProfiles());
}

TEST(GridIoBinary, AnalysesAgreeAfterRoundTrip)
{
    const MeasuredGrid &original = test::phasedGrid();
    const MeasuredGrid loaded =
        test::gridFromBytes(test::gridBytes(original));
    InefficiencyAnalysis a(original);
    InefficiencyAnalysis b(loaded);
    EXPECT_DOUBLE_EQ(a.eminTotal(), b.eminTotal());
    EXPECT_DOUBLE_EQ(a.maxRunInefficiency(), b.maxRunInefficiency());
}

TEST(GridIoBinary, RejectsTruncatedHeader)
{
    EXPECT_THROW(test::gridFromBytes(""), FatalError);
    EXPECT_THROW(test::gridFromBytes("mcd"), FatalError);
    std::string bytes = test::gridBytes(test::phasedGrid());
    bytes.resize(20);  // cuts the body mid-sample-count
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError);
}

TEST(GridIoBinary, RejectsUnsupportedVersion)
{
    std::string bytes = test::gridBytes(test::phasedGrid());
    bytes[0] = static_cast<char>(0xEE);  // low byte of the format word
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError);
    bytes[0] = 0;
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError);
}

TEST(GridIoBinary, RejectsTruncatedPayload)
{
    std::string bytes = test::gridBytes(test::phasedGrid());
    bytes.resize(bytes.size() - 3);
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError);

    // A sample count the bytes left cannot hold is rejected before a
    // grid is allocated for it.
    bytes = test::gridBytes(test::phasedGrid());
    const std::size_t samples_at = 8 + test::phasedGrid().workload().size();
    bytes[samples_at + 2] ^= 0x01;  // 12 samples become 65,548
    EXPECT_THROW(test::gridFromBytes(bytes), FatalError);
}

} // namespace
} // namespace mcdvfs

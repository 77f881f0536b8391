/**
 * @file
 * Randomized robustness tests for the daemon's SnapshotStore.
 *
 * The store's contract is stricter than the grid loader's: a daemon
 * must survive any on-disk state, so every malformed snapshot —
 * truncated at any byte, or with any single byte corrupted — degrades
 * to a counted cache miss (nullptr + stats().loadErrors), never to an
 * exception escaping loadGrid(), and never to UB.  The sanitize script
 * runs this binary under ASan/UBSan so the "never UB" half is
 * machine-checked.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "daemon/snapshot_store.hh"
#include "sim/grid_io.hh"
#include "svc/characterization_service.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

namespace fs = std::filesystem;
using daemon::SnapshotStore;

std::string
freshDir(const std::string &name)
{
    const std::string dir = "snapfuzz_" + name;
    fs::remove_all(dir);
    return dir;
}

svc::GridKey
gridKey(std::uint64_t workload)
{
    svc::GridKey key;
    key.workload = workload;
    key.space = 11;
    key.config = 22;
    return key;
}

/** The single .snap file in @c dir. */
std::string
onlySnapshotPath(const std::string &dir)
{
    std::string found;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        EXPECT_TRUE(found.empty());
        found = entry.path().string();
    }
    EXPECT_FALSE(found.empty());
    return found;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
fuzzStoredGrid(const MeasuredGrid &grid, const std::string &tag,
               std::uint64_t seed)
{
    const std::string dir = freshDir(tag);
    const svc::GridKey key = gridKey(1);
    {
        SnapshotStore store(dir);
        store.storeGrid(key, grid);
    }
    const std::string path = onlySnapshotPath(dir);
    const std::string pristine = readFile(path);
    ASSERT_GT(pristine.size(), 64u);

    SnapshotStore store(dir);
    std::uint64_t expected_errors = store.stats().loadErrors;

    const auto expectMiss = [&](const std::string &bytes,
                                const char *what) {
        writeFile(path, bytes);
        std::shared_ptr<const MeasuredGrid> loaded;
        // The store API is noexcept-in-practice: a bad file is a
        // counted miss, not an escaping exception.
        EXPECT_NO_THROW(loaded = store.loadGrid(key)) << what;
        EXPECT_EQ(loaded, nullptr) << what;
        ++expected_errors;
        EXPECT_EQ(store.stats().loadErrors, expected_errors) << what;
        // Bulk warm-restart loads must skip it the same way.
        EXPECT_TRUE(store.loadAllGrids().empty()) << what;
        ++expected_errors;
        EXPECT_EQ(store.stats().loadErrors, expected_errors) << what;
    };

    Rng rng(seed);

    // Truncation at every header byte and at sampled payload lengths.
    for (std::size_t len = 0; len < 64; ++len)
        expectMiss(pristine.substr(0, len), "header truncation");
    for (int i = 0; i < 128; ++i) {
        const std::size_t len = 64 + rng.uniformInt(pristine.size() - 64);
        expectMiss(pristine.substr(0, len), "payload truncation");
    }

    // Single-byte corruption at sampled offsets (container header,
    // embedded key, inner grid snapshot and payload all covered).
    for (int i = 0; i < 128; ++i) {
        std::string corrupt = pristine;
        const std::size_t pos = rng.uniformInt(corrupt.size());
        corrupt[pos] = static_cast<char>(
            corrupt[pos] ^
            static_cast<char>(1 + rng.uniformInt(255)));
        expectMiss(corrupt, "single-byte corruption");
    }

    // The pristine bytes still load bit-identically: every rejection
    // above was about the file, and the reader holds no residue.
    writeFile(path, pristine);
    const auto loaded = store.loadGrid(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(test::gridBytes(*loaded), test::gridBytes(grid));
    EXPECT_EQ(store.stats().loadErrors, expected_errors);
    fs::remove_all(dir);
}

TEST(SnapshotStoreFuzz, TwoDomainGridDegradesToCountedMisses)
{
    fuzzStoredGrid(test::phasedGrid(), "grid2", 0x57AB1);
}

TEST(SnapshotStoreFuzz, ThreeDomainGridDegradesToCountedMisses)
{
    GridRunner runner(test::fastSystemConfig());
    const MeasuredGrid grid =
        runner.run(test::steadyWorkload(), SettingsSpace::coarse3());
    fuzzStoredGrid(grid, "grid3", 0x57AB2);
}

TEST(SnapshotStoreFuzz, AnalysisSnapshotDegradesToCountedMisses)
{
    const std::string dir = freshDir("analysis");
    svc::AnalysisKey key;
    key.grid = 7;
    key.budget = 1.3;
    key.threshold = 0.03;

    svc::AnalysisResult analysis;
    {
        svc::CharacterizationService service(test::fastSystemConfig());
        const svc::TuningResult tuned = service.submit(
            svc::TuningRequest{test::phasedWorkload(),
                               SettingsSpace::coarse(), 1.3, 0.03});
        analysis.optimal = tuned.optimal;
        analysis.clusters = tuned.clusters;
        analysis.regions = tuned.regions;
    }
    {
        SnapshotStore store(dir);
        store.storeAnalysis(key, analysis);
    }
    const std::string path = onlySnapshotPath(dir);
    const std::string pristine = readFile(path);

    SnapshotStore store(dir);
    std::uint64_t expected_errors = 0;
    Rng rng(0x57AB3);
    for (int i = 0; i < 96; ++i) {
        std::string bytes = pristine;
        if (i % 2 == 0) {
            bytes = bytes.substr(0, rng.uniformInt(bytes.size()));
        } else {
            const std::size_t pos = rng.uniformInt(bytes.size());
            bytes[pos] = static_cast<char>(
                bytes[pos] ^
                static_cast<char>(1 + rng.uniformInt(255)));
        }
        writeFile(path, bytes);
        std::shared_ptr<const svc::AnalysisResult> loaded;
        EXPECT_NO_THROW(loaded = store.loadAnalysis(key));
        EXPECT_EQ(loaded, nullptr);
        ++expected_errors;
        EXPECT_EQ(store.stats().loadErrors, expected_errors);
    }

    writeFile(path, pristine);
    EXPECT_NE(store.loadAnalysis(key), nullptr);
    EXPECT_EQ(store.stats().loadErrors, expected_errors);
    fs::remove_all(dir);
}

} // namespace
} // namespace mcdvfs

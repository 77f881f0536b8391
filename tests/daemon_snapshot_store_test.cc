/**
 * @file
 * SnapshotStore tests: bit-identical grid and analysis round trips,
 * the grid file's bytes, fingerprint addressing (including
 * mismatched-key rejection), corrupt/truncated/version-skewed file
 * rejection, element counts a payload cannot hold, the rebuild of a
 * store written by the previous container version, atomic-write
 * hygiene (also when a write fails, and with two stores writing one
 * key), warm-restart bulk loads, the newest-first listing, pooled
 * loads against serial ones, and a daemon's warm start capped at its
 * cache capacities.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "daemon/snapshot_store.hh"
#include "daemon/tuning_daemon.hh"
#include "exec/thread_pool.hh"
#include "sim/grid_io.hh"
#include "svc/characterization_service.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

namespace fs = std::filesystem;
using daemon::SnapshotStore;

/** Fresh store directory under the test's working directory. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = "snapstore_" + name;
    fs::remove_all(dir);
    return dir;
}

svc::GridKey
gridKey(std::uint64_t workload, std::uint64_t space = 11,
        std::uint64_t config = 22)
{
    svc::GridKey key;
    key.workload = workload;
    key.space = space;
    key.config = config;
    return key;
}

svc::AnalysisKey
analysisKey(std::uint64_t grid, double budget = 1.3,
            double threshold = 0.03)
{
    svc::AnalysisKey key;
    key.grid = grid;
    key.budget = budget;
    key.threshold = threshold;
    return key;
}

/** A real analysis result (phasedGrid at the default budget). */
const svc::AnalysisResult &
sampleAnalysis()
{
    static const svc::AnalysisResult result = [] {
        svc::CharacterizationService service(test::fastSystemConfig());
        const svc::TuningResult tuned = service.submit(
            svc::TuningRequest{test::phasedWorkload(),
                               SettingsSpace::coarse(), 1.3, 0.03});
        svc::AnalysisResult analysis;
        analysis.optimal = tuned.optimal;
        analysis.clusters = tuned.clusters;
        analysis.regions = tuned.regions;
        return analysis;
    }();
    return result;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

void
expectChoicesBitEqual(const OptimalChoice &a, const OptimalChoice &b)
{
    EXPECT_EQ(a.settingIndex, b.settingIndex);
    EXPECT_EQ(bitsOf(a.setting.cpu), bitsOf(b.setting.cpu));
    EXPECT_EQ(bitsOf(a.setting.mem), bitsOf(b.setting.mem));
    EXPECT_EQ(bitsOf(a.speedup), bitsOf(b.speedup));
    EXPECT_EQ(bitsOf(a.inefficiency), bitsOf(b.inefficiency));
}

void
expectAnalysesBitEqual(const svc::AnalysisResult &a,
                       const svc::AnalysisResult &b)
{
    ASSERT_EQ(a.optimal.size(), b.optimal.size());
    for (std::size_t i = 0; i < a.optimal.size(); ++i)
        expectChoicesBitEqual(a.optimal[i], b.optimal[i]);

    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t i = 0; i < a.clusters.size(); ++i) {
        expectChoicesBitEqual(a.clusters[i].optimal,
                              b.clusters[i].optimal);
        EXPECT_EQ(a.clusters[i].settings, b.clusters[i].settings);
    }

    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].first, b.regions[i].first);
        EXPECT_EQ(a.regions[i].last, b.regions[i].last);
        EXPECT_EQ(a.regions[i].availableSettings,
                  b.regions[i].availableSettings);
        EXPECT_EQ(a.regions[i].chosenSettingIndex,
                  b.regions[i].chosenSettingIndex);
        EXPECT_EQ(bitsOf(a.regions[i].chosenSetting.cpu),
                  bitsOf(b.regions[i].chosenSetting.cpu));
        EXPECT_EQ(bitsOf(a.regions[i].chosenSetting.mem),
                  bitsOf(b.regions[i].chosenSetting.mem));
    }
}

/** The single snapshot file in @c dir (fails the test otherwise). */
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

TEST(SnapshotStore, GridRoundTripIsBitIdentical)
{
    const std::string dir = freshDir("grid_roundtrip");
    SnapshotStore store(dir);
    const svc::GridKey key = gridKey(1);

    store.storeGrid(key, test::phasedGrid());
    const auto loaded = store.loadGrid(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(test::gridBytes(*loaded), test::gridBytes(test::phasedGrid()));

    const SnapshotStore::Stats stats = store.stats();
    EXPECT_EQ(stats.gridStores, 1u);
    EXPECT_EQ(stats.gridLoads, 1u);
    EXPECT_EQ(stats.loadErrors, 0u);
    fs::remove_all(dir);
}

TEST(SnapshotStore, AnalysisRoundTripIsBitIdentical)
{
    const std::string dir = freshDir("analysis_roundtrip");
    SnapshotStore store(dir);
    const svc::AnalysisKey key = analysisKey(7);

    store.storeAnalysis(key, sampleAnalysis());
    const auto loaded = store.loadAnalysis(key);
    ASSERT_NE(loaded, nullptr);
    expectAnalysesBitEqual(*loaded, sampleAnalysis());

    const SnapshotStore::Stats stats = store.stats();
    EXPECT_EQ(stats.analysisStores, 1u);
    EXPECT_EQ(stats.analysisLoads, 1u);
    EXPECT_EQ(stats.loadErrors, 0u);
    fs::remove_all(dir);
}

TEST(SnapshotStore, AbsentSnapshotIsAMissNotAnError)
{
    const std::string dir = freshDir("absent");
    SnapshotStore store(dir);
    EXPECT_EQ(store.loadGrid(gridKey(42)), nullptr);
    EXPECT_EQ(store.loadAnalysis(analysisKey(42)), nullptr);
    EXPECT_EQ(store.stats().loadErrors, 0u);
    fs::remove_all(dir);
}

TEST(SnapshotStore, AddressesSnapshotsByFingerprint)
{
    const std::string dir = freshDir("addressing");
    SnapshotStore store(dir);

    // Distinct grids under distinct keys; each key must resolve to
    // exactly the grid stored under it.
    store.storeGrid(gridKey(1), test::phasedGrid());
    store.storeGrid(gridKey(2), test::steadyGrid());
    const auto first = store.loadGrid(gridKey(1));
    const auto second = store.loadGrid(gridKey(2));
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(first->workload(), "phased");
    EXPECT_EQ(second->workload(), "steady");

    // Any key differing in any fingerprint component misses.
    EXPECT_EQ(store.loadGrid(gridKey(3)), nullptr);
    EXPECT_EQ(store.loadGrid(gridKey(1, 12)), nullptr);
    EXPECT_EQ(store.loadGrid(gridKey(1, 11, 23)), nullptr);

    // Analyses with the same grid digest but different budgets or
    // thresholds are distinct snapshots.
    store.storeAnalysis(analysisKey(9, 1.3, 0.03), sampleAnalysis());
    EXPECT_NE(store.loadAnalysis(analysisKey(9, 1.3, 0.03)), nullptr);
    EXPECT_EQ(store.loadAnalysis(analysisKey(9, 1.5, 0.03)), nullptr);
    EXPECT_EQ(store.loadAnalysis(analysisKey(9, 1.3, 0.01)), nullptr);
    EXPECT_EQ(store.stats().loadErrors, 0u);
    fs::remove_all(dir);
}

TEST(SnapshotStore, RejectsSnapshotWhoseStoredKeyMismatches)
{
    const std::string dir = freshDir("key_mismatch");
    const svc::GridKey stored_key = gridKey(1);
    const svc::GridKey other_key = gridKey(2);
    {
        SnapshotStore store(dir);
        store.storeGrid(stored_key, test::phasedGrid());
    }
    const std::string stored_path = onlySnapshotPath(dir);

    SnapshotStore store(dir);
    store.storeGrid(other_key, test::steadyGrid());
    std::string other_path;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().string() != stored_path)
            other_path = entry.path().string();
    }
    ASSERT_FALSE(other_path.empty());

    // Masquerade stored_key's snapshot as other_key's by copying its
    // bytes over the path other_key addresses.  The container's
    // embedded key must catch the forgery.
    fs::copy_file(stored_path, other_path,
                  fs::copy_options::overwrite_existing);
    SnapshotStore reopened(dir);
    EXPECT_EQ(reopened.loadGrid(other_key), nullptr);
    EXPECT_EQ(reopened.stats().loadErrors, 1u);
    // The honest key still loads.
    EXPECT_NE(reopened.loadGrid(stored_key), nullptr);
    fs::remove_all(dir);
}

TEST(SnapshotStore, RejectsCorruptTruncatedAndSkewedFiles)
{
    const std::string dir = freshDir("corrupt");
    const svc::GridKey key = gridKey(5);

    {
        SnapshotStore store(dir);
        store.storeGrid(key, test::phasedGrid());
    }
    const std::string path = onlySnapshotPath(dir);
    std::ifstream in(path, std::ios::binary);
    std::string pristine((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(pristine.size(), 64u);

    const auto rewrite = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // Truncated to a partial header.
    rewrite(pristine.substr(0, 10));
    {
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadGrid(key), nullptr);
        EXPECT_EQ(store.stats().loadErrors, 1u);
    }

    // Truncated mid-payload.
    rewrite(pristine.substr(0, pristine.size() - 7));
    {
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadGrid(key), nullptr);
        EXPECT_EQ(store.stats().loadErrors, 1u);
    }

    // Flipped payload bit (checksum mismatch).
    {
        std::string corrupt = pristine;
        corrupt[corrupt.size() / 2] ^= 0x10;
        rewrite(corrupt);
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadGrid(key), nullptr);
        EXPECT_EQ(store.stats().loadErrors, 1u);
        EXPECT_TRUE(store.loadAllGrids().empty());
    }

    // Flipped bit in the embedded-key region (byte 20 lies inside the
    // key bytes, after magic + version + kind + length prefix).  The
    // checksum covers the key, so this must read as corruption — not
    // silently warm-load the grid under a different key.
    {
        std::string corrupt = pristine;
        corrupt[20] ^= 0x04;
        rewrite(corrupt);
        SnapshotStore store(dir);
        EXPECT_TRUE(store.loadAllGrids().empty());
        EXPECT_EQ(store.stats().loadErrors, 1u);
    }

    // Bad magic.
    {
        std::string corrupt = pristine;
        corrupt[0] = 'Z';
        rewrite(corrupt);
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadGrid(key), nullptr);
    }

    // Version from the future.
    {
        std::string corrupt = pristine;
        corrupt[8] = static_cast<char>(0x7F);
        rewrite(corrupt);
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadGrid(key), nullptr);
    }

    // The pristine bytes still load: rejection was about the file, not
    // the reader.
    rewrite(pristine);
    {
        SnapshotStore store(dir);
        EXPECT_NE(store.loadGrid(key), nullptr);
        EXPECT_EQ(store.stats().loadErrors, 0u);
    }
    fs::remove_all(dir);
}

/** Warnings seen by the capture sink (setLogSink takes a function). */
std::vector<std::string> &
capturedWarnings()
{
    static std::vector<std::string> lines;
    return lines;
}

void
captureWarning(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        capturedWarnings().push_back(msg);
}

TEST(SnapshotStore, RejectsCountsThePayloadCannotHold)
{
    // A checksum-valid analysis file whose count claims more elements
    // than its payload holds is rejected for that count before
    // anything is reserved for it, as one counted load error.
    const std::string dir = freshDir("overcount");
    const svc::AnalysisKey key = analysisKey(9);
    {
        SnapshotStore store(dir);
        ASSERT_TRUE(store.storeAnalysis(key, sampleAnalysis()));
    }
    const std::string path = onlySnapshotPath(dir);
    std::ifstream in(path, std::ios::binary);
    const std::string pristine((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    // The container up to its payload size: magic, version, kind, key
    // length, then the 24 key bytes the checksum is seeded with.
    const std::string head = pristine.substr(0, 20 + 24);
    const std::string_view key_bytes = std::string_view(head).substr(20);

    // Each count comes after the (empty) lists before it.
    const std::pair<const char *, std::vector<std::uint32_t>> cases[] = {
        {"optimal", {99'999'999}},
        {"cluster", {0, 99'999'999}},
        {"region", {0, 0, 99'999'999}},
    };
    const LogSink previous = setLogSink(&captureWarning);
    for (const auto &[what, counts] : cases) {
        ByteWriter payload;
        for (const std::uint32_t count : counts)
            payload.u32(count);
        const std::string body = payload.take();
        ByteWriter size_and_checksum;
        size_and_checksum.u64(body.size());
        size_and_checksum.u64(checksum64(body, checksum64(key_bytes)));
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            const std::string bytes =
                head + size_and_checksum.take() + body;
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }

        capturedWarnings().clear();
        SnapshotStore store(dir);
        EXPECT_EQ(store.loadAnalysis(key), nullptr) << what;
        EXPECT_EQ(store.stats().loadErrors, 1u) << what;
        ASSERT_EQ(capturedWarnings().size(), 1u) << what;
        EXPECT_NE(capturedWarnings()[0].find(std::string(what) +
                                             " count 99999999"),
                  std::string::npos)
            << capturedWarnings()[0];
    }
    setLogSink(previous);
    capturedWarnings().clear();
    fs::remove_all(dir);
}

TEST(SnapshotStore, GridFileMatchesTheGolden)
{
    // The container is a file format: pin a three-domain grid file's
    // bytes (header, body format word, grid body and checksum64).
    const std::string dir = freshDir("golden");
    SnapshotStore store(dir);
    ASSERT_TRUE(store.storeGrid(
        gridKey(1), test::handGrid(SettingsSpace::coarse3(), 3)));
    const std::string path = onlySnapshotPath(dir);
    EXPECT_EQ(fs::path(path).filename(), "grid-f5e14c8e821328b9.snap");
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 81298u);
    EXPECT_EQ(fnv1aString(kFnvOffsetBasis, bytes), 0x8ed54ebd416f7458ull);
    fs::remove_all(dir);
}

/** The container version word (little-endian u32 at offset 8). */
std::uint32_t
versionWord(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char bytes[12] = {};
    in.read(bytes, sizeof(bytes));
    std::uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(bytes[8 + i]))
                   << (8 * i);
    return version;
}

TEST(SnapshotStore, RejectsThePreviousContainerVersion)
{
    const std::string dir = freshDir("previous_version");
    daemon::DaemonOptions options;
    options.storeDir = dir;
    const svc::TuningRequest request{test::steadyWorkload(),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    {
        daemon::TuningDaemon daemon(test::fastSystemConfig(), options);
        ASSERT_TRUE(daemon.submit(request).get().ok());
    }

    // Rewrite every snapshot's version word to 2, as a store written
    // before the upgrade would read.
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        paths.push_back(entry.path().string());
        ASSERT_EQ(versionWord(paths.back()), SnapshotStore::kVersion);
        std::fstream file(paths.back(),
                          std::ios::binary | std::ios::in | std::ios::out);
        file.seekp(8);
        file.put(2);
    }
    ASSERT_EQ(paths.size(), 2u);  // one grid, one analysis

    {
        SnapshotStore store(dir);
        EXPECT_TRUE(store.loadAllGrids().empty());
        EXPECT_EQ(store.stats().loadErrors, 1u);
        EXPECT_EQ(store.stats().gridLoads, 0u);
    }

    // A daemon over the old store warm-loads nothing, serves the
    // request cold, and rewrites both snapshots in the current version.
    {
        daemon::TuningDaemon daemon(test::fastSystemConfig(), options);
        EXPECT_EQ(daemon.stats().warmGrids, 0u);
        EXPECT_EQ(daemon.stats().warmAnalyses, 0u);
        EXPECT_EQ(daemon.store()->stats().loadErrors, 2u);
        const daemon::DaemonResponse response =
            daemon.submit(request).get();
        ASSERT_TRUE(response.ok());
        EXPECT_FALSE(response.result.cacheHit);
        EXPECT_FALSE(response.result.analysisCacheHit);
    }
    for (const std::string &path : paths)
        EXPECT_EQ(versionWord(path), SnapshotStore::kVersion) << path;

    daemon::TuningDaemon restarted(test::fastSystemConfig(), options);
    EXPECT_EQ(restarted.stats().warmGrids, 1u);
    EXPECT_EQ(restarted.stats().warmAnalyses, 1u);
    EXPECT_EQ(restarted.store()->stats().loadErrors, 0u);
    restarted.drain();
    fs::remove_all(dir);
}

TEST(SnapshotStore, FailedWriteIsCountedAndLeavesNoTempFile)
{
    const std::string dir = freshDir("failed_write");
    const svc::GridKey key = gridKey(4);
    std::string path;
    {
        SnapshotStore store(dir);
        store.storeGrid(key, test::phasedGrid());
        path = onlySnapshotPath(dir);
    }
    // A non-empty directory under the snapshot's name: the temp file
    // is written, but renaming it into place fails.
    fs::remove(path);
    fs::create_directories(path + "/blocker");

    SnapshotStore store(dir);
    EXPECT_FALSE(store.storeGrid(key, test::steadyGrid()));
    EXPECT_EQ(store.stats().storeErrors, 1u);
    EXPECT_EQ(store.stats().gridStores, 0u);
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().string(), path);  // no *.tmp* residue
    fs::remove_all(dir);
}

TEST(SnapshotStore, OverwritesInPlaceWithoutTempResidue)
{
    const std::string dir = freshDir("overwrite");
    SnapshotStore store(dir);
    const svc::GridKey key = gridKey(3);
    store.storeGrid(key, test::phasedGrid());
    store.storeGrid(key, test::steadyGrid());

    // One file, no *.tmp* residue, and the latest store wins.
    std::size_t files = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".snap");
    }
    EXPECT_EQ(files, 1u);
    const auto loaded = store.loadGrid(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->workload(), "steady");
    fs::remove_all(dir);
}

TEST(SnapshotStore, WarmRestartLoadsEverythingVerifiable)
{
    const std::string dir = freshDir("warm");
    const svc::GridKey key_a = gridKey(1);
    const svc::GridKey key_b = gridKey(2);
    const svc::AnalysisKey key_c = analysisKey(1);
    {
        SnapshotStore store(dir);
        store.storeGrid(key_a, test::phasedGrid());
        store.storeGrid(key_b, test::steadyGrid());
        store.storeAnalysis(key_c, sampleAnalysis());
    }
    // Plant junk a warm restart must skip: a foreign file and a
    // garbage .snap of each kind.
    {
        std::ofstream(dir + "/README.txt") << "not a snapshot";
        std::ofstream(dir + "/grid-0000000000000000.snap") << "garbage";
        std::ofstream(dir + "/analysis-0000000000000000.snap") << "junk";
    }

    SnapshotStore reopened(dir);
    std::vector<SnapshotStore::GridEntry> grids =
        reopened.loadAllGrids();
    ASSERT_EQ(grids.size(), 2u);
    for (const SnapshotStore::GridEntry &entry : grids) {
        EXPECT_TRUE(entry.key == key_a || entry.key == key_b);
        ASSERT_NE(entry.grid, nullptr);
    }

    std::vector<SnapshotStore::AnalysisEntry> analyses =
        reopened.loadAllAnalyses();
    ASSERT_EQ(analyses.size(), 1u);
    EXPECT_TRUE(analyses[0].key == key_c);
    expectAnalysesBitEqual(*analyses[0].result, sampleAnalysis());

    EXPECT_EQ(reopened.stats().loadErrors, 2u);
    fs::remove_all(dir);
}

/** The path a store gives the snapshot of @c kind under @c digest. */
std::string
snapshotPath(const std::string &dir, const char *kind,
             std::uint64_t digest)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    return dir + "/" + kind + "-" + hex + ".snap";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
rewriteFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Set @c path's modification time @c seconds past a fixed base. */
void
setMtime(const std::string &path, int seconds)
{
    static const fs::file_time_type base =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(path, base + std::chrono::seconds(seconds));
}

TEST(SnapshotStore, TwoStoresWritingOneKeyNeverCollide)
{
    // Two store instances on one directory (as two processes would
    // open it) write one analysis key at the same moment, round after
    // round.  Every write has its own temporary name, so no rename
    // takes the other writer's file.
    const std::string dir = freshDir("two_writers");
    const svc::AnalysisKey key = analysisKey(13);
    const svc::AnalysisResult &result = sampleAnalysis();
    SnapshotStore first(dir);
    SnapshotStore second(dir);
    constexpr int kRounds = 200;
    std::barrier together(2);
    const auto write = [&](SnapshotStore &store) {
        for (int round = 0; round < kRounds; ++round) {
            together.arrive_and_wait();
            store.storeAnalysis(key, result);
        }
    };
    std::thread other(write, std::ref(second));
    write(first);
    other.join();

    EXPECT_EQ(first.stats().storeErrors, 0u);
    EXPECT_EQ(second.stats().storeErrors, 0u);
    EXPECT_EQ(first.stats().analysisStores, std::uint64_t{kRounds});
    EXPECT_EQ(second.stats().analysisStores, std::uint64_t{kRounds});
    const auto loaded = SnapshotStore(dir).loadAnalysis(key);
    ASSERT_NE(loaded, nullptr);
    expectAnalysesBitEqual(*loaded, result);
    EXPECT_EQ(onlySnapshotPath(dir), snapshotPath(dir, "analysis",
                                                  key.combined()));
    fs::remove_all(dir);
}

TEST(SnapshotStore, ListsNewestFirstAndSelectsPerKind)
{
    const std::string dir = freshDir("listing");
    SnapshotStore store(dir);
    for (std::uint64_t i = 1; i <= 3; ++i) {
        ASSERT_TRUE(store.storeGrid(gridKey(i), test::steadyGrid()));
        ASSERT_TRUE(store.storeAnalysis(analysisKey(i), sampleAnalysis()));
    }
    std::ofstream(dir + "/README.txt") << "not a snapshot";
    const auto grid = [&](std::uint64_t i) {
        return snapshotPath(dir, "grid", gridKey(i).combined());
    };
    const auto analysis = [&](std::uint64_t i) {
        return snapshotPath(dir, "analysis", analysisKey(i).combined());
    };
    // Oldest to newest: grid 1, analysis 1, grid 2, analysis 2, then
    // grid 3 and analysis 3 at one time, which order by name.
    setMtime(grid(1), 1);
    setMtime(analysis(1), 2);
    setMtime(grid(2), 3);
    setMtime(analysis(2), 4);
    setMtime(grid(3), 5);
    setMtime(analysis(3), 5);

    using Kind = SnapshotStore::Kind;
    const std::vector<std::pair<std::string, Kind>> expected = {
        {analysis(3), Kind::Analysis}, {grid(3), Kind::Grid},
        {analysis(2), Kind::Analysis}, {grid(2), Kind::Grid},
        {analysis(1), Kind::Analysis}, {grid(1), Kind::Grid}};
    const std::vector<SnapshotStore::File> listed = store.list();
    ASSERT_EQ(listed.size(), expected.size());
    for (std::size_t i = 0; i < listed.size(); ++i) {
        EXPECT_EQ(listed[i].path, expected[i].first) << i;
        EXPECT_EQ(listed[i].kind, expected[i].second) << i;
        EXPECT_EQ(listed[i].size, fs::file_size(listed[i].path)) << i;
    }

    // The newest grid and the two newest analyses, in listing order.
    const std::vector<SnapshotStore::File> selected =
        SnapshotStore::newest(listed, 1, 2);
    ASSERT_EQ(selected.size(), 3u);
    EXPECT_EQ(selected[0].path, analysis(3));
    EXPECT_EQ(selected[1].path, grid(3));
    EXPECT_EQ(selected[2].path, analysis(2));
    EXPECT_TRUE(SnapshotStore::newest(listed, 0, 0).empty());
    // Listing read no file.
    EXPECT_EQ(store.stats().gridLoads + store.stats().analysisLoads, 0u);
    fs::remove_all(dir);
}

TEST(SnapshotStore, PooledLoadEqualsSerialLoad)
{
    // Good grids and analyses plus one corrupt, one truncated and one
    // old-version file: for every pool size, one pooled load of the
    // listing returns the serial calls' entries in their order, with
    // their counts, each bad file one load error.
    const std::string dir = freshDir("pooled");
    {
        SnapshotStore store(dir);
        for (std::uint64_t i = 1; i <= 7; ++i) {
            ASSERT_TRUE(store.storeGrid(gridKey(i), i % 2 == 0
                                                        ? test::steadyGrid()
                                                        : test::phasedGrid()));
            ASSERT_TRUE(store.storeAnalysis(
                analysisKey(i, 1.0 + 0.1 * static_cast<double>(i)),
                sampleAnalysis()));
        }
    }
    {
        const std::string corrupt =
            snapshotPath(dir, "grid", gridKey(2).combined());
        std::string bytes = fileBytes(corrupt);
        bytes[bytes.size() / 2] ^= 0x10;
        rewriteFile(corrupt, bytes);

        const std::string truncated =
            snapshotPath(dir, "grid", gridKey(5).combined());
        bytes = fileBytes(truncated);
        rewriteFile(truncated, bytes.substr(0, bytes.size() - 7));

        const std::string old = snapshotPath(
            dir, "analysis", analysisKey(3, 1.3).combined());
        bytes = fileBytes(old);
        bytes[8] = 2;  // the container version word
        rewriteFile(old, bytes);
    }

    SnapshotStore serial(dir);
    const std::vector<SnapshotStore::GridEntry> grids =
        serial.loadAllGrids();
    const std::vector<SnapshotStore::AnalysisEntry> analyses =
        serial.loadAllAnalyses();
    ASSERT_EQ(grids.size(), 5u);
    ASSERT_EQ(analyses.size(), 6u);
    EXPECT_EQ(serial.stats().loadErrors, 3u);

    for (const std::size_t jobs : {1u, 2u, 4u}) {
        SnapshotStore pooled(dir);
        exec::ThreadPool pool(jobs);
        const SnapshotStore::Loaded loaded =
            pooled.load(pooled.list(), &pool);
        ASSERT_EQ(loaded.grids.size(), grids.size()) << jobs;
        for (std::size_t i = 0; i < grids.size(); ++i) {
            EXPECT_TRUE(loaded.grids[i].key == grids[i].key) << jobs;
            EXPECT_EQ(test::gridBytes(*loaded.grids[i].grid),
                      test::gridBytes(*grids[i].grid))
                << jobs;
        }
        ASSERT_EQ(loaded.analyses.size(), analyses.size()) << jobs;
        for (std::size_t i = 0; i < analyses.size(); ++i) {
            EXPECT_TRUE(loaded.analyses[i].key == analyses[i].key) << jobs;
            expectAnalysesBitEqual(*loaded.analyses[i].result,
                                   *analyses[i].result);
        }
        const SnapshotStore::Stats a = pooled.stats();
        const SnapshotStore::Stats b = serial.stats();
        EXPECT_EQ(a.gridLoads, b.gridLoads) << jobs;
        EXPECT_EQ(a.analysisLoads, b.analysisLoads) << jobs;
        EXPECT_EQ(a.loadErrors, b.loadErrors) << jobs;
        EXPECT_EQ(a.gridStores + a.analysisStores + a.storeErrors, 0u);
    }
    fs::remove_all(dir);
}

TEST(SnapshotStore, VanishedFilesAreSkippedNeverThrown)
{
    const std::string dir = freshDir("vanished");
    SnapshotStore store(dir);
    ASSERT_TRUE(store.storeGrid(gridKey(1), test::phasedGrid()));
    ASSERT_TRUE(store.storeGrid(gridKey(2), test::steadyGrid()));
    const std::vector<SnapshotStore::File> listed = store.list();
    ASSERT_EQ(listed.size(), 2u);

    // A file removed between the listing and the load is skipped like
    // any absent snapshot: not an entry, not an error.
    fs::remove(listed[0].path);
    SnapshotStore::Loaded loaded;
    EXPECT_NO_THROW(loaded = store.load(listed));
    ASSERT_EQ(loaded.grids.size(), 1u);
    EXPECT_EQ(snapshotPath(dir, "grid", loaded.grids[0].key.combined()),
              listed[1].path);
    EXPECT_EQ(store.stats().gridLoads, 1u);
    EXPECT_EQ(store.stats().loadErrors, 0u);

    // A store whose directory is gone lists and loads nothing; no
    // std::filesystem_error escapes.
    fs::remove_all(dir);
    EXPECT_NO_THROW(EXPECT_TRUE(store.list().empty()));
    EXPECT_NO_THROW(EXPECT_TRUE(store.loadAllGrids().empty()));
    EXPECT_NO_THROW(EXPECT_TRUE(store.loadAllAnalyses().empty()));
}

TEST(SnapshotStore, WarmStartLoadsOnlyTheNewestUpToCapacity)
{
    // Five grid files and five analysis files, each kind older to
    // newer, under caches of two: the daemon reads the two newest of
    // each kind and nothing else.
    const std::string dir = freshDir("capped_warm");
    std::vector<svc::GridKey> grid_keys;
    std::vector<svc::AnalysisKey> analysis_keys;
    std::vector<std::string> grid_files, analysis_files;
    {
        SnapshotStore store(dir);
        for (std::size_t i = 0; i < 5; ++i) {
            grid_keys.push_back(gridKey(101 + i));
            analysis_keys.push_back(analysisKey(201 + i));
            ASSERT_TRUE(store.storeGrid(grid_keys[i], test::phasedGrid()));
            ASSERT_TRUE(
                store.storeAnalysis(analysis_keys[i], sampleAnalysis()));
            grid_files.push_back(
                snapshotPath(dir, "grid", grid_keys[i].combined()));
            analysis_files.push_back(
                snapshotPath(dir, "analysis", analysis_keys[i].combined()));
        }
    }
    const auto age = [&] {
        for (std::size_t i = 0; i < 5; ++i) {
            setMtime(grid_files[i], static_cast<int>(10 + i));
            setMtime(analysis_files[i], static_cast<int>(20 + i));
        }
    };
    age();

    daemon::DaemonOptions options;
    options.storeDir = dir;
    options.service.cacheCapacity = 2;
    options.service.analysisCapacity = 2;
    const svc::TuningRequest request{test::phasedWorkload(),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    const auto grid = std::make_shared<const MeasuredGrid>(test::phasedGrid());
    {
        daemon::TuningDaemon daemon(test::fastSystemConfig(), options);
        const SnapshotStore::Stats io = daemon.store()->stats();
        EXPECT_EQ(io.gridLoads, 2u);
        EXPECT_EQ(io.analysisLoads, 2u);
        EXPECT_EQ(io.loadErrors, 0u);
        EXPECT_EQ(daemon.stats().warmGrids, 2u);
        EXPECT_EQ(daemon.stats().warmAnalyses, 2u);
        svc::CharacterizationService &service = daemon.service();
        EXPECT_EQ(service.cacheStats().entries, 2u);
        EXPECT_EQ(service.analysisStats().entries, 2u);
        EXPECT_NE(service.findGrid(grid_keys[3]), nullptr);
        EXPECT_NE(service.findGrid(grid_keys[4]), nullptr);
        for (std::size_t i = 3; i < 5; ++i) {
            EXPECT_TRUE(service
                            .analyze(request, analysis_keys[i].grid, grid,
                                     true)
                            .analysisCacheHit)
                << i;
        }
        daemon.drain();
    }
    // The older files are still on disk, never read.
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_TRUE(fs::exists(grid_files[i])) << i;
        EXPECT_TRUE(fs::exists(analysis_files[i])) << i;
    }

    // A corrupt file among the newest uses up its place: one load
    // error, and the third-newest file is still not read.
    {
        std::string bytes = fileBytes(grid_files[4]);
        bytes[bytes.size() / 2] ^= 0x10;
        rewriteFile(grid_files[4], bytes);
        age();
    }
    daemon::TuningDaemon restarted(test::fastSystemConfig(), options);
    const SnapshotStore::Stats io = restarted.store()->stats();
    EXPECT_EQ(io.gridLoads, 1u);
    EXPECT_EQ(io.analysisLoads, 2u);
    EXPECT_EQ(io.loadErrors, 1u);
    EXPECT_EQ(restarted.stats().warmGrids, 1u);
    EXPECT_EQ(restarted.stats().warmAnalyses, 2u);
    EXPECT_NE(restarted.service().findGrid(grid_keys[3]), nullptr);
    EXPECT_EQ(restarted.service().findGrid(grid_keys[4]), nullptr);
    EXPECT_EQ(restarted.service().findGrid(grid_keys[2]), nullptr);
    restarted.drain();
    fs::remove_all(dir);
}

TEST(SnapshotStore, FatalsOnUncreatableDirectory)
{
    const std::string dir = freshDir("not_a_dir");
    std::ofstream(dir) << "file in the way";
    EXPECT_THROW(SnapshotStore store(dir), FatalError);
    fs::remove(dir);
}

} // namespace
} // namespace mcdvfs

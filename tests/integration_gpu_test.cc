/**
 * @file
 * End-to-end tests for three-domain (CPU x mem x GPU) spaces: the
 * 560-setting coarse3 cross product — past the inline SettingMask
 * tier — characterized through the service and the daemon, with the
 * cluster/region chain pinned bit-identical to the scalar reference
 * analysis, and the two-domain goldens untouched alongside.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/reference_analysis.hh"
#include "daemon/tuning_daemon.hh"
#include "sim/grid_io.hh"
#include "svc/characterization_service.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

namespace fs = std::filesystem;

/** The GPU render workload over the 560-setting space, built once. */
const MeasuredGrid &
renderGrid()
{
    static const MeasuredGrid grid = [] {
        GridRunner runner(test::fastSystemConfig());
        return runner.run(makeGlrender(), SettingsSpace::coarse3());
    }();
    return grid;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST(ThreeDomain, GridCarriesAMeaningfulGpuColumn)
{
    const MeasuredGrid &grid = renderGrid();
    ASSERT_TRUE(grid.space().hasGpu());
    ASSERT_EQ(grid.space().size(), 560u);
    ASSERT_GT(grid.space().size(), SettingMask::kCapacity);

    // Every cell of a GPU workload burns GPU energy, and the column
    // responds to the GPU frequency: at fixed CPU/mem, the fastest
    // GPU step differs from the slowest (shorter busy time, different
    // idle window).
    const SettingsSpace &space = grid.space();
    const std::size_t gpu_steps = space.gpuLadder().size();
    for (std::size_t s = 0; s < grid.sampleCount(); s += 7) {
        for (std::size_t k = 0; k < space.size(); k += 13)
            EXPECT_GT(grid.cell(s, k).gpuEnergy, 0.0);
        const double slow = grid.cell(s, 0).gpuEnergy;
        const double fast = grid.cell(s, gpu_steps - 1).gpuEnergy;
        EXPECT_NE(bitsOf(slow), bitsOf(fast)) << "sample " << s;
    }
}

TEST(ThreeDomain, ServiceMatchesReferenceAnalysisBitForBit)
{
    // The full service pipeline over the 560-setting space, pinned to
    // the scalar reference chain (core/reference_analysis) — the same
    // oracle the two-domain goldens use.
    svc::CharacterizationService service(test::fastSystemConfig());
    const svc::TuningResult result = service.submit(svc::TuningRequest{
        makeGlrender(), SettingsSpace::coarse3(), 1.3, 0.03});
    ASSERT_NE(result.grid, nullptr);
    ASSERT_TRUE(result.grid->space().hasGpu());

    InefficiencyAnalysis analysis(*result.grid);
    OptimalSettingsFinder finder(analysis);
    const std::vector<PerformanceCluster> reference =
        referenceClusters(finder, 1.3, 0.03);
    ASSERT_EQ(result.clusters.size(), reference.size());
    for (std::size_t s = 0; s < reference.size(); ++s) {
        const PerformanceCluster &got = result.clusters[s];
        const PerformanceCluster &want = reference[s];
        ASSERT_EQ(got.optimal.settingIndex, want.optimal.settingIndex);
        EXPECT_EQ(bitsOf(got.optimal.setting.gpu),
                  bitsOf(want.optimal.setting.gpu));
        EXPECT_EQ(bitsOf(got.optimal.speedup),
                  bitsOf(want.optimal.speedup));
        EXPECT_EQ(bitsOf(got.optimal.inefficiency),
                  bitsOf(want.optimal.inefficiency));
        ASSERT_EQ(got.settings, want.settings) << "sample " << s;
    }

    const std::vector<StableRegion> want_regions =
        referenceStableRegions(result.grid->space(), reference);
    ASSERT_EQ(result.regions.size(), want_regions.size());
    for (std::size_t i = 0; i < want_regions.size(); ++i) {
        EXPECT_EQ(result.regions[i].first, want_regions[i].first);
        EXPECT_EQ(result.regions[i].last, want_regions[i].last);
        EXPECT_EQ(result.regions[i].availableSettings,
                  want_regions[i].availableSettings);
        EXPECT_EQ(result.regions[i].chosenSettingIndex,
                  want_regions[i].chosenSettingIndex);
    }

    // Every reported optimum is internally consistent: its index
    // resolves (through the three-domain flat indexing) to exactly
    // the setting it carries, GPU coordinate included.
    const SettingsSpace &space = result.grid->space();
    for (const OptimalChoice &choice : result.optimal) {
        const FrequencySetting at = space.at(choice.settingIndex);
        EXPECT_EQ(bitsOf(at.cpu), bitsOf(choice.setting.cpu));
        EXPECT_EQ(bitsOf(at.mem), bitsOf(choice.setting.mem));
        EXPECT_EQ(bitsOf(at.gpu), bitsOf(choice.setting.gpu));
        EXPECT_EQ(space.indexOf(choice.setting), choice.settingIndex);
    }
}

TEST(ThreeDomain, DaemonRoundTripsThreeDomainSnapshots)
{
    const std::string dir = "daemon_gpu_store";
    fs::remove_all(dir);

    const svc::TuningRequest request{
        makeGlrender(), SettingsSpace::coarse3(), 1.3, 0.03};
    std::string first_bytes;
    {
        daemon::TuningDaemon::Options options;
        options.storeDir = dir;
        daemon::TuningDaemon daemon(test::fastSystemConfig(), options);
        daemon::DaemonResponse response =
            daemon.submit(request).get();
        ASSERT_TRUE(response.ok());
        ASSERT_NE(response.result.grid, nullptr);
        EXPECT_FALSE(response.result.cacheHit);
        first_bytes = test::gridBytes(*response.result.grid);
        daemon.drain();
    }
    {
        // A restarted daemon warm-loads the persisted v2 snapshot and
        // serves the same request from cache, bit-identically.
        daemon::TuningDaemon::Options options;
        options.storeDir = dir;
        daemon::TuningDaemon daemon(test::fastSystemConfig(), options);
        daemon::DaemonResponse response =
            daemon.submit(request).get();
        ASSERT_TRUE(response.ok());
        EXPECT_TRUE(response.result.cacheHit);
        EXPECT_EQ(test::gridBytes(*response.result.grid),
                  first_bytes);
        daemon.drain();
    }
    fs::remove_all(dir);
}

TEST(ThreeDomain, TwoDomainGridsStillSerializeAsV1)
{
    // The GPU extension must not disturb two-domain artifacts: their
    // binary body keeps format 1 and their text header stays
    // "mcdvfs-grid v1".
    EXPECT_EQ(gridBodyFormat(test::phasedGrid()), 1u);
    EXPECT_EQ(saveGridToString(test::phasedGrid()).substr(0, 14),
              "mcdvfs-grid v1");

    EXPECT_EQ(gridBodyFormat(renderGrid()), 2u);
    EXPECT_EQ(saveGridToString(renderGrid()).substr(0, 14),
              "mcdvfs-grid v2");
}

} // namespace
} // namespace mcdvfs

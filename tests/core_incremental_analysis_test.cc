/**
 * @file
 * Incremental (streaming) analysis tests: AnalysisCheckpoint extension
 * must be bit-identical to a full recompute at every split point, the
 * grid prefix digests that key the checkpoints must be prefix-stable
 * and move with any row they cover, the checkpoint store
 * (CheckpointCache) must obey its LRU/disable semantics, and the
 * CharacterizationService must
 * resume a grown workload from its longest cached prefix with exactly
 * the results of a from-scratch service.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental_analysis.hh"
#include "exec/thread_pool.hh"
#include "svc/characterization_service.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

void
expectChoicesIdentical(const OptimalChoice &a, const OptimalChoice &b)
{
    ASSERT_EQ(a.settingIndex, b.settingIndex);
    ASSERT_TRUE(a.setting == b.setting);
    ASSERT_EQ(a.speedup, b.speedup);
    ASSERT_EQ(a.inefficiency, b.inefficiency);
}

void
expectRegionsIdentical(const std::vector<StableRegion> &a,
                       const std::vector<StableRegion> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].first, b[i].first);
        ASSERT_EQ(a[i].last, b[i].last);
        ASSERT_EQ(a[i].availableSettings, b[i].availableSettings);
        ASSERT_EQ(a[i].chosenSettingIndex, b[i].chosenSettingIndex);
        ASSERT_TRUE(a[i].chosenSetting == b[i].chosenSetting);
    }
}

void
expectCheckpointsIdentical(const AnalysisCheckpoint &a,
                           const AnalysisCheckpoint &b,
                           const SettingsSpace &space)
{
    ASSERT_EQ(a.samples, b.samples);
    ASSERT_EQ(a.masks, b.masks);
    ASSERT_EQ(a.optimal.size(), b.optimal.size());
    for (std::size_t s = 0; s < a.optimal.size(); ++s)
        expectChoicesIdentical(a.optimal[s], b.optimal[s]);
    expectRegionsIdentical(a.regions.regions(space),
                           b.regions.regions(space));
}

/** steadyWorkload() with a parameterized length: same name, script and
 *  seed, so a longer run is a content-prefix extension of a shorter
 *  one (the streaming-growth shape the checkpoint store keys on). */
WorkloadProfile
grownSteady(std::size_t samples)
{
    PhaseSpec spec;
    spec.name = "steady";
    spec.hotFrac = 0.94;
    spec.warmFrac = 0.05;
    return WorkloadProfile(
        "steady", samples, [spec](std::size_t) { return spec; }, 23,
        /*jitter=*/0.01);
}

MeasuredGrid
buildGrid(const WorkloadProfile &workload)
{
    GridRunner runner(test::fastSystemConfig());
    return runner.run(workload, SettingsSpace::coarse());
}

TEST(IncrementalAnalysis, ExtendMatchesRecomputeAtEverySplit)
{
    const MeasuredGrid &grid = test::phasedGrid();
    const SettingsSpace space = SettingsSpace::coarse();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    const std::size_t n = grid.sampleCount();

    for (const double budget : {1.0, 1.3}) {
        const double threshold = budget == 1.0 ? 0.0 : 0.03;
        const AnalysisCheckpoint oracle = IncrementalAnalyzer::build(
            clusters, budget, threshold, n);
        for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                        n / 2, n - 1, n}) {
            AnalysisCheckpoint cp = IncrementalAnalyzer::build(
                clusters, budget, threshold, split);
            ASSERT_EQ(cp.samples, split);
            // A tail-range finder covering [split, n) is all the
            // extension may touch — exactly what the service hands it.
            const ClusterFinder tail(finder, split);
            IncrementalAnalyzer::extend(cp, tail, n);
            expectCheckpointsIdentical(oracle, cp, space);
        }
    }
}

TEST(IncrementalAnalysis, ExtendToCurrentLengthIsANoOp)
{
    const MeasuredGrid &grid = test::steadyGrid();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    const std::size_t n = grid.sampleCount();

    AnalysisCheckpoint cp =
        IncrementalAnalyzer::build(clusters, 1.3, 0.03, n);
    AnalysisCheckpoint again = cp;
    IncrementalAnalyzer::extend(again, clusters, n);
    expectCheckpointsIdentical(cp, again, SettingsSpace::coarse());
}

TEST(IncrementalAnalysis, FromTableMatchesBuild)
{
    // The table() pass, a pooled extend() from an empty checkpoint
    // (the service's analysis path) and a serial build() must agree
    // bit for bit.
    const MeasuredGrid &grid = test::phasedGrid();
    const SettingsSpace space = SettingsSpace::coarse();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    exec::ThreadPool pool(3);

    const ClusterTable table = clusters.table(1.3, 0.03, &pool);
    AnalysisCheckpoint pooled;
    pooled.budget = 1.3;
    pooled.threshold = 0.03;
    IncrementalAnalyzer::extend(pooled, clusters, grid.sampleCount(),
                                &pool);
    const AnalysisCheckpoint built = IncrementalAnalyzer::build(
        clusters, 1.3, 0.03, grid.sampleCount());
    expectCheckpointsIdentical(built, pooled, space);
    ASSERT_EQ(table.masks, pooled.masks);
    expectRegionsIdentical(StableRegionFinder(clusters).fromTable(table),
                           pooled.regions.regions(space));

    // materializeCluster must agree with the table's own vector form.
    for (std::size_t s = 0; s < table.sampleCount(); ++s) {
        const PerformanceCluster a = table.materialize(s);
        const PerformanceCluster b =
            IncrementalAnalyzer::materializeCluster(pooled.optimal[s],
                                                    pooled.masks[s]);
        expectChoicesIdentical(a.optimal, b.optimal);
        ASSERT_EQ(a.settings, b.settings);
    }
}

TEST(GridPrefixDigest, SharedPrefixesDigestEqually)
{
    // Both runs are at least as long as the warmup span, so the short
    // grid's rows are a bit-identical prefix of the long grid's.
    const MeasuredGrid short_grid = buildGrid(grownSteady(8));
    const MeasuredGrid long_grid = buildGrid(grownSteady(12));
    for (std::size_t len = 1; len <= 8; ++len) {
        EXPECT_EQ(short_grid.prefixDigest(len),
                  long_grid.prefixDigest(len))
            << "prefix length " << len;
    }
    // Longer prefixes of the long grid are new content.
    EXPECT_NE(long_grid.prefixDigest(12), long_grid.prefixDigest(8));
}

TEST(GridPrefixDigest, ARowChangeMovesOnlyLaterDigests)
{
    // Copy a grid row by row with one cell of sample 3 changed: the
    // prefixes that end before sample 3 keep their digests, and every
    // prefix that includes it moves.  Only the digested columns are
    // copied.
    const MeasuredGrid pristine = buildGrid(grownSteady(8));
    const std::uint64_t whole = pristine.prefixDigest(8);
    EXPECT_EQ(pristine.prefixDigest(8), whole);  // cached, stable
    MeasuredGrid changed(pristine.workload(), pristine.space(),
                         pristine.sampleCount(),
                         pristine.instructionsPerSample());
    const std::size_t settings = pristine.settingCount();
    for (std::size_t s = 0; s < pristine.sampleCount(); ++s) {
        const MeasuredGrid::RowView row = changed.fillRow(s);
        std::copy_n(pristine.secondsRow(s), settings, row.seconds);
        std::copy_n(pristine.cpuEnergyRow(s), settings, row.cpuEnergy);
        std::copy_n(pristine.memEnergyRow(s), settings, row.memEnergy);
        std::copy_n(pristine.gpuEnergyRow(s), settings, row.gpuEnergy);
        if (s == 3)
            row.seconds[5] += 1.0;
        changed.updateSampleAggregates(s);
    }
    for (std::size_t len = 1; len <= 3; ++len)
        EXPECT_EQ(changed.prefixDigest(len), pristine.prefixDigest(len))
            << "prefix length " << len;
    for (std::size_t len = 4; len <= 8; ++len)
        EXPECT_NE(changed.prefixDigest(len), pristine.prefixDigest(len))
            << "prefix length " << len;
}

TEST(AnalysisCacheCheckpoints, LongestPrefixWinsAndCountsOnce)
{
    svc::CheckpointCache cache(4, 2);
    const auto make = [](std::size_t samples) {
        auto cp = std::make_shared<AnalysisCheckpoint>();
        cp->samples = samples;
        return cp;
    };
    const svc::AnalysisKey short_key{0x1111, 1.3, 0.03};
    const svc::AnalysisKey long_key{0x2222, 1.3, 0.03};
    const svc::AnalysisKey absent_key{0x3333, 1.3, 0.03};
    cache.insert(short_key, make(3));
    cache.insert(long_key, make(5));

    // Longest-first walk: the first present key wins even when later
    // keys are present too, and the walk counts exactly one hit.
    const auto hit = cache.find(
        std::vector<svc::AnalysisKey>{absent_key, long_key, short_key});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->samples, 5u);
    svc::CheckpointCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 2u);

    // A walk probing only absent prefixes counts exactly one miss.
    EXPECT_EQ(cache.find(absent_key), nullptr);
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(AnalysisCacheCheckpoints, EvictsLeastRecentlyUsed)
{
    // One shard of capacity 1: the second insert evicts the first.
    svc::CheckpointCache cache(1, 1);
    const svc::AnalysisKey first{0xaaaa, 1.3, 0.03};
    const svc::AnalysisKey second{0xbbbb, 1.3, 0.03};
    cache.insert(first, std::make_shared<AnalysisCheckpoint>());
    cache.insert(second, std::make_shared<AnalysisCheckpoint>());
    const svc::CheckpointCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(cache.find(first), nullptr);
    EXPECT_NE(cache.find(second), nullptr);
}

TEST(AnalysisCacheCheckpoints, ZeroCapacityDisablesTheStore)
{
    svc::ServiceOptions options;
    options.checkpointCapacity = 0;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         options);
    svc::TuningRequest request{grownSteady(8), SettingsSpace::coarse(),
                               1.3, 0.03};
    EXPECT_FALSE(service.submit(request).analysisResumed);

    // The workload grows, but there is no checkpoint to resume from.
    request.workload = grownSteady(12);
    const svc::TuningResult grown = service.submit(request);
    EXPECT_FALSE(grown.analysisResumed);
    EXPECT_EQ(grown.resumedFromSamples, 0u);
    const svc::CheckpointCache::Stats stats = service.checkpointStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 0u);

    // Results are still cached without a checkpoint store.
    EXPECT_TRUE(service.submit(request).analysisCacheHit);
    EXPECT_EQ(service.analysisStats().hits, 1u);
}

void
expectResultsIdentical(const svc::TuningResult &a,
                       const svc::TuningResult &b)
{
    ASSERT_EQ(a.optimal.size(), b.optimal.size());
    for (std::size_t s = 0; s < a.optimal.size(); ++s)
        expectChoicesIdentical(a.optimal[s], b.optimal[s]);
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t s = 0; s < a.clusters.size(); ++s) {
        expectChoicesIdentical(a.clusters[s].optimal,
                               b.clusters[s].optimal);
        ASSERT_EQ(a.clusters[s].settings, b.clusters[s].settings);
    }
    expectRegionsIdentical(a.regions, b.regions);
}

TEST(ServiceStreaming, GrownWorkloadResumesFromCachedPrefix)
{
    svc::ServiceOptions streaming_options;
    svc::ServiceOptions control_options;
    control_options.checkpointCapacity = 0;  // resume disabled
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         streaming_options);
    svc::CharacterizationService control(test::fastSystemConfig(),
                                         control_options);

    svc::TuningRequest request{grownSteady(8), SettingsSpace::coarse(),
                               1.3, 0.03};

    // First sight of the workload: full compute, no prefix to resume
    // from, but the analysis leaves a checkpoint behind.
    const svc::TuningResult base = service.submit(request);
    EXPECT_FALSE(base.analysisResumed);
    EXPECT_EQ(base.resumedFromSamples, 0u);

    // The workload grows: new grid fingerprint (result-cache miss),
    // but the first 8 samples digest identically, so the analysis
    // resumes from the cached checkpoint instead of recomputing.
    request.workload = grownSteady(12);
    const svc::TuningResult grown = service.submit(request);
    EXPECT_TRUE(grown.analysisResumed);
    EXPECT_EQ(grown.resumedFromSamples, 8u);
    EXPECT_FALSE(grown.analysisCacheHit);
    EXPECT_GE(service.checkpointStats().hits, 1u);

    // The resumed chain must be bit-identical to the from-scratch one.
    const svc::TuningResult oracle = control.submit(request);
    EXPECT_FALSE(oracle.analysisResumed);
    expectResultsIdentical(oracle, grown);

    // A repeat of the grown request is now a plain result-cache hit.
    const svc::TuningResult repeat = service.submit(request);
    EXPECT_TRUE(repeat.analysisCacheHit);
    expectResultsIdentical(oracle, repeat);
}

} // namespace
} // namespace mcdvfs

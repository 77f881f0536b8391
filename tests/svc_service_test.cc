/**
 * @file
 * CharacterizationService tests: tuning results, cache reuse across
 * submits, caches that hold their full capacity, batch deduplication
 * through the daemon, parallel/serial equivalence, and every analysis
 * path pinned to the scalar reference.
 */

#include <bit>
#include <future>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/reference_analysis.hh"
#include "daemon/tuning_daemon.hh"
#include "svc/characterization_service.hh"

namespace mcdvfs
{
namespace
{

WorkloadProfile
tinyWorkload(const std::string &name = "tiny", std::size_t samples = 6)
{
    PhaseSpec cpu;
    cpu.name = "cpu";
    cpu.hotFrac = 0.98;
    cpu.warmFrac = 0.015;
    PhaseSpec mem;
    mem.name = "mem";
    mem.hotFrac = 0.80;
    mem.warmFrac = 0.10;
    mem.coldSeqFrac = 0.3;
    return WorkloadProfile(
        name, samples,
        [cpu, mem](std::size_t s) { return s % 2 ? mem : cpu; }, 5,
        /*jitter=*/0.0);
}

SystemConfig
fastConfig()
{
    SystemConfig config;
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    return config;
}

svc::TuningRequest
tinyRequest()
{
    return svc::TuningRequest{tinyWorkload(), SettingsSpace::coarse(),
                              1.3, 0.03};
}

TEST(CharacterizationService, SubmitProducesFullTuningResult)
{
    svc::CharacterizationService service(fastConfig());
    const svc::TuningResult result = service.submit(tinyRequest());

    ASSERT_NE(result.grid, nullptr);
    EXPECT_EQ(result.grid->sampleCount(), 6u);
    EXPECT_EQ(result.grid->settingCount(), 70u);
    EXPECT_EQ(result.optimal.size(), 6u);
    EXPECT_EQ(result.clusters.size(), 6u);
    ASSERT_FALSE(result.regions.empty());
    EXPECT_FALSE(result.cacheHit);
    EXPECT_EQ(result.budget, 1.3);

    // Regions tile the run.
    EXPECT_EQ(result.regions.front().first, 0u);
    EXPECT_EQ(result.regions.back().last, 5u);
    for (std::size_t r = 1; r < result.regions.size(); ++r)
        EXPECT_EQ(result.regions[r].first,
                  result.regions[r - 1].last + 1);

    // Every optimum respects the budget.
    for (const OptimalChoice &choice : result.optimal)
        EXPECT_LE(choice.inefficiency, 1.3 * (1.0 + 1e-12));
}

TEST(CharacterizationService, RepeatedSubmitHitsCacheAndSkipsRecharacterization)
{
    svc::CharacterizationService service(fastConfig());
    const svc::TuningResult first = service.submit(tinyRequest());
    EXPECT_FALSE(first.cacheHit);
    EXPECT_EQ(service.cacheStats().misses, 1u);
    EXPECT_EQ(service.cacheStats().hits, 0u);

    // Same workload content, different object; different budget — the
    // grid is keyed on content only, so this must be served from cache.
    svc::TuningRequest again = tinyRequest();
    again.budget = 1.5;
    const svc::TuningResult second = service.submit(again);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.grid.get(), first.grid.get());
    EXPECT_EQ(service.cacheStats().misses, 1u);
    EXPECT_EQ(service.cacheStats().hits, 1u);
}

TEST(CharacterizationService, DistinctConfigsDoNotShareGrids)
{
    svc::CharacterizationService fast(fastConfig());
    SystemConfig other = fastConfig();
    other.measurementNoise = 0.0;
    svc::CharacterizationService noiseless(other);

    const auto a = fast.submit(tinyRequest());
    const auto b = noiseless.submit(tinyRequest());
    EXPECT_FALSE(b.cacheHit);
    EXPECT_NE(a.grid->cell(0, 0).seconds, b.grid->cell(0, 0).seconds);
}

TEST(CharacterizationService, CachesHoldTheirCapacity)
{
    // As many distinct keys as each cache holds, drawn from a fixed
    // seed: every one stays resident, however the keys hash.
    const svc::ServiceOptions options;
    svc::CharacterizationService service(fastConfig(), options);
    GridRunner runner(fastConfig());
    const auto grid = std::make_shared<const MeasuredGrid>(
        runner.run(tinyWorkload(), SettingsSpace::coarse()));
    const auto analysis = std::make_shared<const svc::AnalysisResult>();
    Rng rng(0x5eed'cafeull);
    std::vector<svc::GridKey> grid_keys;
    for (std::size_t i = 0; i < options.cacheCapacity; ++i) {
        grid_keys.push_back(svc::GridKey{rng.next(), rng.next(), rng.next()});
        service.primeGrid(grid_keys.back(), grid);
    }
    const svc::TuningRequest request = tinyRequest();
    std::vector<svc::AnalysisKey> analysis_keys;
    for (std::size_t i = 0; i < options.analysisCapacity; ++i) {
        analysis_keys.push_back(
            svc::AnalysisKey{rng.next(), request.budget, request.threshold});
        service.primeAnalysis(analysis_keys.back(), analysis);
    }

    EXPECT_EQ(service.cacheStats().entries, options.cacheCapacity);
    EXPECT_EQ(service.analysisStats().entries, options.analysisCapacity);
    for (const svc::GridKey &key : grid_keys)
        EXPECT_NE(service.findGrid(key), nullptr);
    for (const svc::AnalysisKey &key : analysis_keys) {
        EXPECT_TRUE(
            service.analyze(request, key.grid, grid, true).analysisCacheHit);
    }
    EXPECT_EQ(service.cacheStats().evictions, 0u);
    EXPECT_EQ(service.analysisStats().evictions, 0u);
}

TEST(CharacterizationService, BatchDeduplicatesIdenticalCharacterizations)
{
    daemon::DaemonOptions options;
    options.service.jobs = 4;
    daemon::TuningDaemon server(fastConfig(), options);

    svc::TuningRequest low = tinyRequest();
    svc::TuningRequest high = tinyRequest();
    high.budget = 1.6;
    svc::TuningRequest other{tinyWorkload("tiny2"),
                             SettingsSpace::coarse(), 1.3, 0.03};

    std::vector<std::future<daemon::DaemonResponse>> futures;
    for (const svc::TuningRequest &request : {low, high, other, low})
        futures.push_back(server.submit(request));
    std::vector<svc::TuningResult> results;
    for (std::future<daemon::DaemonResponse> &future : futures) {
        daemon::DaemonResponse response = future.get();
        ASSERT_TRUE(response.ok());
        results.push_back(std::move(response.result));
    }
    server.drain();

    // Three requests share one characterization; only two grids were
    // ever built.  (How many lookups miss depends on how the batcher
    // splits the four requests: a group that joins a build probes
    // nothing.)
    EXPECT_EQ(results[0].grid.get(), results[1].grid.get());
    EXPECT_EQ(results[0].grid.get(), results[3].grid.get());
    EXPECT_NE(results[0].grid.get(), results[2].grid.get());
    EXPECT_EQ(server.service().cacheStats().entries, 2u);

    // Budgets were honored per request despite the shared grid.
    EXPECT_EQ(results[1].budget, 1.6);
    for (const OptimalChoice &choice : results[1].optimal)
        EXPECT_LE(choice.inefficiency, 1.6 * (1.0 + 1e-12));
}

TEST(CharacterizationService, ParallelServiceMatchesSerialBitForBit)
{
    svc::ServiceOptions serial_opts;
    serial_opts.jobs = 1;
    svc::ServiceOptions parallel_opts;
    parallel_opts.jobs = 8;
    svc::CharacterizationService serial(fastConfig(), serial_opts);
    svc::CharacterizationService parallel(fastConfig(), parallel_opts);

    const auto a = serial.submit(tinyRequest());
    const auto b = parallel.submit(tinyRequest());
    for (std::size_t s = 0; s < a.grid->sampleCount(); ++s) {
        for (std::size_t k = 0; k < a.grid->settingCount(); ++k) {
            const GridCell &ca = a.grid->cell(s, k);
            const GridCell &cb = b.grid->cell(s, k);
            ASSERT_EQ(ca.seconds, cb.seconds);
            ASSERT_EQ(ca.cpuEnergy, cb.cpuEnergy);
            ASSERT_EQ(ca.memEnergy, cb.memEnergy);
        }
    }
    // Identical grids imply identical analyses.
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t r = 0; r < a.regions.size(); ++r) {
        EXPECT_EQ(a.regions[r].first, b.regions[r].first);
        EXPECT_EQ(a.regions[r].last, b.regions[r].last);
        EXPECT_EQ(a.regions[r].chosenSettingIndex,
                  b.regions[r].chosenSettingIndex);
    }
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSameChoice(const OptimalChoice &got, const OptimalChoice &want)
{
    EXPECT_EQ(got.settingIndex, want.settingIndex);
    EXPECT_EQ(bitsOf(got.speedup), bitsOf(want.speedup));
    EXPECT_EQ(bitsOf(got.inefficiency), bitsOf(want.inefficiency));
}

/** @c result against the scalar reference chain on its own grid. */
void
expectMatchesReference(const svc::TuningResult &result)
{
    InefficiencyAnalysis analysis(*result.grid);
    OptimalSettingsFinder finder(analysis);
    const std::vector<PerformanceCluster> want =
        referenceClusters(finder, result.budget, result.threshold);
    ASSERT_EQ(result.optimal.size(), want.size());
    ASSERT_EQ(result.clusters.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
        SCOPED_TRACE(testing::Message() << "sample " << s);
        expectSameChoice(result.optimal[s], want[s].optimal);
        expectSameChoice(result.clusters[s].optimal, want[s].optimal);
        EXPECT_EQ(result.clusters[s].settings, want[s].settings);
    }

    const std::vector<StableRegion> want_regions =
        referenceStableRegions(result.grid->space(), want);
    ASSERT_EQ(result.regions.size(), want_regions.size());
    for (std::size_t i = 0; i < want_regions.size(); ++i) {
        EXPECT_EQ(result.regions[i].first, want_regions[i].first);
        EXPECT_EQ(result.regions[i].last, want_regions[i].last);
        EXPECT_EQ(result.regions[i].availableSettings,
                  want_regions[i].availableSettings);
        EXPECT_EQ(result.regions[i].chosenSettingIndex,
                  want_regions[i].chosenSettingIndex);
    }
}

TEST(CharacterizationService, AnalysisMatchesReferenceBitForBit)
{
    // A full analysis (an extend() from an empty checkpoint, fanned
    // over a pool) on both two-domain spaces, with the checkpoint
    // store on and off.
    for (const bool fine : {false, true}) {
        for (const std::size_t checkpoints : {64, 0}) {
            SCOPED_TRACE(testing::Message()
                         << (fine ? "fine" : "coarse") << ", "
                         << checkpoints << " checkpoints");
            svc::ServiceOptions options;
            options.jobs = 2;
            options.checkpointCapacity = checkpoints;
            svc::CharacterizationService service(fastConfig(), options);
            for (const double budget : {1.3, 1.6}) {
                const svc::TuningResult result =
                    service.submit(svc::TuningRequest{
                        tinyWorkload(),
                        fine ? SettingsSpace::fine()
                             : SettingsSpace::coarse(),
                        budget, 0.03});
                EXPECT_FALSE(result.analysisResumed);
                expectMatchesReference(result);
            }
        }
    }

    // A grown workload resumes from its 8-sample checkpoint; the
    // extended analysis matches the reference on the grown grid.
    svc::ServiceOptions options;
    options.jobs = 2;
    svc::CharacterizationService service(fastConfig(), options);
    svc::TuningRequest request{tinyWorkload("grown", 8),
                               SettingsSpace::coarse(), 1.3, 0.03};
    expectMatchesReference(service.submit(request));
    request.workload = tinyWorkload("grown", 12);
    const svc::TuningResult grown = service.submit(request);
    ASSERT_TRUE(grown.analysisResumed);
    EXPECT_EQ(grown.resumedFromSamples, 8u);
    expectMatchesReference(grown);
}

} // namespace
} // namespace mcdvfs

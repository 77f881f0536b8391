/**
 * @file
 * Invariants of immutable inputs and shared results.
 *
 * A WorkloadProfile runs its phase script once per sample, all in its
 * constructor, and keeps nothing that could run it again.  Analysis
 * hits on one key hand out the same cached storage, and a result a
 * caller holds stays valid after its cache entry is evicted.  Cached
 * results are read by pool threads and caller threads at once, so
 * this suite also runs under TSan (scripts/sanitize.sh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "daemon/tuning_daemon.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

/** A six-sample profile whose script counts its calls. */
WorkloadProfile
countingWorkload(const std::shared_ptr<std::atomic<int>> &calls)
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
        "counted", 6,
        [calls, cpu, mem](std::size_t s) {
            calls->fetch_add(1);
            return s % 2 ? mem : cpu;
        },
        9, /*jitter=*/0.02);
}

svc::TuningRequest
requestFor(const WorkloadProfile &workload, double budget = 1.3)
{
    return svc::TuningRequest{workload, SettingsSpace::coarse(), budget,
                              0.03};
}

TEST(SharedInputs, ScriptRunsOncePerSampleInTheConstructor)
{
    const auto calls = std::make_shared<std::atomic<int>>(0);
    const WorkloadProfile profile = countingWorkload(calls);
    EXPECT_EQ(calls->load(), 6);
    // The script is not retained: only this test still holds calls.
    EXPECT_EQ(calls.use_count(), 1);

    // A copy shares the built samples.
    const WorkloadProfile copy = profile;
    EXPECT_EQ(&copy.phaseFor(3), &profile.phaseFor(3));
    EXPECT_EQ(copy.fingerprint(), profile.fingerprint());

    svc::ServiceOptions options;
    options.jobs = 2;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         options);
    service.keyFor(profile, SettingsSpace::coarse());
    ASSERT_NE(service.grid(profile, SettingsSpace::coarse()), nullptr);
    EXPECT_TRUE(service.submit(requestFor(copy)).analysis != nullptr);

    daemon::DaemonOptions daemon_options;
    daemon_options.service.jobs = 2;
    daemon::TuningDaemon daemon(test::fastSystemConfig(), daemon_options);
    std::vector<std::future<daemon::DaemonResponse>> futures;
    for (const double budget : {1.1, 1.3, 1.3, 2.0})
        futures.push_back(daemon.submit(requestFor(profile, budget)));
    for (std::future<daemon::DaemonResponse> &future : futures)
        EXPECT_TRUE(future.get().ok());
    daemon.drain();

    EXPECT_EQ(calls->load(), 6);
}

TEST(SharedResults, AnalysisHitsShareStorage)
{
    svc::CharacterizationService service(test::fastSystemConfig());
    const svc::TuningRequest request = requestFor(test::phasedWorkload());
    const svc::TuningResult miss = service.submit(request);
    const svc::TuningResult hit = service.submit(request);
    const svc::TuningResult again = service.submit(request);
    EXPECT_FALSE(miss.analysisCacheHit);
    ASSERT_TRUE(hit.analysisCacheHit);
    ASSERT_TRUE(again.analysisCacheHit);

    ASSERT_NE(hit.analysis, nullptr);
    EXPECT_EQ(hit.analysis.get(), again.analysis.get());
    EXPECT_EQ(miss.analysis.get(), hit.analysis.get());
    // The views point into that one cached analysis.
    EXPECT_EQ(&hit.optimal.get(), &hit.analysis->optimal);
    EXPECT_EQ(&hit.clusters.get(), &hit.analysis->clusters);
    EXPECT_EQ(&hit.regions.get(), &hit.analysis->regions);
    EXPECT_EQ(&again.clusters.get(), &hit.clusters.get());
    EXPECT_EQ(hit.optimal.size(), hit.grid->sampleCount());
    EXPECT_FALSE(hit.regions.empty());

    // Callers on several threads read the same storage at once.
    std::vector<std::thread> readers;
    std::atomic<int> shared{0};
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                const svc::TuningResult r = service.submit(request);
                std::size_t settings = 0;
                for (const PerformanceCluster &cluster : r.clusters)
                    settings += cluster.settings.size();
                if (r.analysis.get() == hit.analysis.get() && settings > 0)
                    shared.fetch_add(1);
            }
        });
    }
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(shared.load(), 200);
}

TEST(SharedResults, HeldResultOutlivesEviction)
{
    svc::ServiceOptions options;
    options.analysisCapacity = 1;
    options.checkpointCapacity = 0;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         options);
    const WorkloadProfile workload = test::phasedWorkload();

    const svc::TuningResult held = service.submit(requestFor(workload));
    const std::vector<OptimalChoice> optimal = held.optimal;
    const std::vector<StableRegion> regions = held.regions;

    // Another budget takes the only slot: the held entry is evicted.
    service.submit(requestFor(workload, 1.5));
    EXPECT_EQ(service.analysisStats().evictions, 1u);
    const svc::TuningResult recomputed =
        service.submit(requestFor(workload));
    EXPECT_FALSE(recomputed.analysisCacheHit);
    EXPECT_NE(recomputed.analysis.get(), held.analysis.get());

    ASSERT_EQ(held.optimal.size(), optimal.size());
    for (std::size_t s = 0; s < optimal.size(); ++s) {
        EXPECT_EQ(held.optimal[s].settingIndex, optimal[s].settingIndex);
        EXPECT_EQ(held.optimal[s].settingIndex,
                  recomputed.optimal[s].settingIndex);
    }
    ASSERT_EQ(held.regions.size(), regions.size());
    EXPECT_EQ(held.regions.front().first, regions.front().first);
    EXPECT_EQ(held.regions.back().last, regions.back().last);
    EXPECT_EQ(held.clusters.size(), recomputed.clusters.size());
}

TEST(SharedResults, DefaultResultIsEmpty)
{
    const svc::TuningResult none;
    EXPECT_EQ(none.analysis, nullptr);
    EXPECT_TRUE(none.optimal.empty());
    EXPECT_EQ(none.clusters.size(), 0u);
    const std::vector<StableRegion> &regions = none.regions;
    EXPECT_TRUE(regions.empty());
}

} // namespace
} // namespace mcdvfs

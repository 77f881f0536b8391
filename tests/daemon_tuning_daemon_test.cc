/**
 * @file
 * TuningDaemon tests: pipeline results match the direct service path
 * bit-for-bit, admission control sheds (queue-full and draining),
 * drain completes every admitted request, a warm restart answers
 * from the snapshot store, a failed snapshot write does not fail the
 * request, an invalid request fails alone and is counted as failed,
 * cached groups run on the batcher without a pool task, a later
 * batch's request for a grid being built joins that build and is
 * counted as coalesced once, a build task ends under steady traffic
 * on its key, and the journal's class id is the FNV-1a of the
 * workload name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "daemon/tuning_daemon.hh"

namespace mcdvfs
{
namespace
{

namespace fs = std::filesystem;
using daemon::DaemonOptions;
using daemon::DaemonResponse;
using daemon::DaemonStats;
using daemon::ShedReason;
using daemon::TuningDaemon;

WorkloadProfile
tinyWorkload(const std::string &name = "tiny", std::uint64_t seed = 5)
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
        name, 6, [cpu, mem](std::size_t s) { return s % 2 ? mem : cpu; },
        seed, /*jitter=*/0.0);
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
tinyRequest(const std::string &name = "tiny", double budget = 1.3)
{
    return svc::TuningRequest{tinyWorkload(name), SettingsSpace::coarse(),
                              budget, 0.03};
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

void
expectResultsBitEqual(const svc::TuningResult &a,
                      const svc::TuningResult &b)
{
    ASSERT_EQ(a.optimal.size(), b.optimal.size());
    for (std::size_t i = 0; i < a.optimal.size(); ++i) {
        EXPECT_EQ(a.optimal[i].settingIndex, b.optimal[i].settingIndex);
        EXPECT_EQ(bitsOf(a.optimal[i].speedup),
                  bitsOf(b.optimal[i].speedup));
        EXPECT_EQ(bitsOf(a.optimal[i].inefficiency),
                  bitsOf(b.optimal[i].inefficiency));
    }
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t i = 0; i < a.clusters.size(); ++i)
        EXPECT_EQ(a.clusters[i].settings, b.clusters[i].settings);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].first, b.regions[i].first);
        EXPECT_EQ(a.regions[i].last, b.regions[i].last);
        EXPECT_EQ(a.regions[i].chosenSettingIndex,
                  b.regions[i].chosenSettingIndex);
    }
}

TEST(TuningDaemon, MatchesDirectServiceBitForBit)
{
    TuningDaemon daemon(fastConfig());
    DaemonResponse response = daemon.submit(tinyRequest()).get();
    ASSERT_TRUE(response.ok());
    ASSERT_NE(response.result.grid, nullptr);
    if (obs::kMetricsEnabled) {
        // Stage clocks read zero when metrics are compiled out.
        EXPECT_GT(response.totalNs, 0u);
        EXPECT_GT(response.gridNs, 0u);
    }
    EXPECT_FALSE(response.result.cacheHit);

    svc::CharacterizationService direct(fastConfig());
    const svc::TuningResult expected = direct.submit(tinyRequest());
    expectResultsBitEqual(response.result, expected);
}

TEST(TuningDaemon, CompletesEveryAdmittedRequest)
{
    DaemonOptions options;
    options.service.jobs = 2;
    TuningDaemon daemon(fastConfig(), options);

    // Two distinct grids (different seeds), several budgets each; all
    // futures must resolve with a valid result.
    std::vector<std::future<DaemonResponse>> futures;
    for (int round = 0; round < 4; ++round) {
        for (double budget : {1.1, 1.3, 1.5, 2.0}) {
            futures.push_back(
                daemon.submit(tinyRequest("alpha", budget)));
            futures.push_back(
                daemon.submit(tinyRequest("beta", budget)));
        }
    }
    std::vector<DaemonResponse> responses;
    for (std::future<DaemonResponse> &future : futures)
        responses.push_back(future.get());
    for (const DaemonResponse &response : responses) {
        ASSERT_TRUE(response.ok());
        ASSERT_NE(response.result.grid, nullptr);
    }
    // Identical (workload, budget) submissions must agree exactly.
    expectResultsBitEqual(responses.front().result,
                          responses[8].result);
    // Whether requests coalesced in a batch, joined an in-flight
    // build, or hit the cache, each distinct grid characterizes
    // exactly once — every response shares that one grid object.
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const std::size_t twin = i % 2;  // alpha at 0, beta at 1
        EXPECT_EQ(responses[i].result.grid.get(),
                  responses[twin].result.grid.get());
    }

    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.admitted, futures.size());
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_EQ(stats.shedQueueFull, 0u);
    EXPECT_GE(stats.batches, 1u);
}

TEST(TuningDaemon, ShedsWhenTheQueueIsFull)
{
    DaemonOptions options;
    options.queueCapacity = 2;
    options.maxBatch = 1;
    TuningDaemon daemon(fastConfig(), options);

    // A tight submit loop outpaces the batcher (which runs a batch of
    // at most one request at a time), so the two-deep queue must
    // overflow quickly; bound the attempts so the test cannot hang.
    std::vector<std::future<DaemonResponse>> futures;
    const svc::TuningRequest request = tinyRequest();
    bool shed_seen = false;
    for (int i = 0; i < 100'000 && !shed_seen; ++i) {
        futures.push_back(daemon.submit(request));
        shed_seen = daemon.stats().shedQueueFull > 0;
    }
    EXPECT_TRUE(shed_seen);

    daemon.drain();
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    for (std::future<DaemonResponse> &future : futures) {
        const DaemonResponse response = future.get();
        if (response.ok()) {
            ++ok;
            ASSERT_NE(response.result.grid, nullptr);
        } else {
            EXPECT_EQ(response.shed, ShedReason::QueueFull);
            EXPECT_EQ(response.result.grid, nullptr);
            ++shed;
        }
    }
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(ok, stats.completed);
    EXPECT_EQ(shed, stats.shedQueueFull);
    EXPECT_EQ(ok + shed, futures.size());
}

TEST(TuningDaemon, ShedsWithDrainingAfterDrain)
{
    TuningDaemon daemon(fastConfig());
    std::future<DaemonResponse> admitted = daemon.submit(tinyRequest());
    daemon.drain();

    // The admitted request completed; the late one is shed, not hung.
    EXPECT_TRUE(admitted.get().ok());
    const DaemonResponse late = daemon.submit(tinyRequest()).get();
    EXPECT_FALSE(late.ok());
    EXPECT_EQ(late.shed, ShedReason::Draining);
    EXPECT_EQ(daemon.stats().shedDraining, 1u);
    EXPECT_STREQ(daemon::shedReasonName(late.shed), "draining");

    daemon.drain();  // idempotent
}

TEST(TuningDaemon, WarmRestartAnswersFromTheSnapshotStore)
{
    const std::string dir = "daemon_warm_store";
    fs::remove_all(dir);
    DaemonOptions options;
    options.storeDir = dir;

    svc::TuningResult cold;
    {
        TuningDaemon daemon(fastConfig(), options);
        EXPECT_EQ(daemon.stats().warmGrids, 0u);
        DaemonResponse response = daemon.submit(tinyRequest()).get();
        ASSERT_TRUE(response.ok());
        EXPECT_FALSE(response.result.cacheHit);
        EXPECT_FALSE(response.result.analysisCacheHit);
        cold = response.result;
        daemon.drain();
        EXPECT_EQ(daemon.store()->stats().gridStores, 1u);
        EXPECT_EQ(daemon.store()->stats().analysisStores, 1u);
    }

    TuningDaemon restarted(fastConfig(), options);
    const DaemonStats stats = restarted.stats();
    EXPECT_EQ(stats.warmGrids, 1u);
    EXPECT_EQ(stats.warmAnalyses, 1u);

    DaemonResponse warm = restarted.submit(tinyRequest()).get();
    ASSERT_TRUE(warm.ok());
    // Both stages hit: the caches were primed from disk, and the
    // snapshot round trip is bit-identical, so warm equals cold
    // exactly.
    EXPECT_TRUE(warm.result.cacheHit);
    EXPECT_TRUE(warm.result.analysisCacheHit);
    expectResultsBitEqual(warm.result, cold);
    fs::remove_all(dir);
}

TEST(TuningDaemon, ServesWhenSnapshotWritesFail)
{
    const std::string dir = "daemon_vanished_store";
    fs::remove_all(dir);
    DaemonOptions options;
    options.storeDir = dir;
    TuningDaemon daemon(fastConfig(), options);
    // The store directory disappears under the running daemon, so
    // every snapshot write fails (unlike a read-only chmod, this also
    // holds when the tests run as root).
    fs::remove_all(dir);

    const DaemonResponse cold = daemon.submit(tinyRequest()).get();
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.result.cacheHit);
    const DaemonResponse repeat = daemon.submit(tinyRequest()).get();
    ASSERT_TRUE(repeat.ok());
    EXPECT_TRUE(repeat.result.cacheHit);
    EXPECT_TRUE(repeat.result.analysisCacheHit);
    expectResultsBitEqual(repeat.result, cold.result);
    daemon.drain();

    const daemon::SnapshotStore::Stats stats = daemon.store()->stats();
    EXPECT_GE(stats.storeErrors, 1u);
    EXPECT_EQ(stats.gridStores, 0u);
    EXPECT_EQ(stats.analysisStores, 0u);
    // The store writes only inside its directory, which no write
    // recreated: no temporary file is left anywhere.
    EXPECT_FALSE(fs::exists(dir));
}

TEST(TuningDaemon, InvalidRequestFailsAloneInItsBatch)
{
    TuningDaemon daemon(fastConfig());
    ASSERT_TRUE(daemon.submit(tinyRequest()).get().ok());  // warm grid

    const svc::TuningRequest valid = tinyRequest();
    svc::TuningRequest nan_threshold = tinyRequest();
    nan_threshold.threshold = std::numeric_limits<double>::quiet_NaN();

    // Whether the three requests share a batch depends on when the
    // batcher wakes, so repeat until one round does; every round must
    // resolve the same way regardless.
    bool shared_batch = false;
    for (int round = 0; round < 200 && !shared_batch; ++round) {
        const DaemonStats before = daemon.stats();
        std::future<DaemonResponse> first = daemon.submit(valid);
        std::future<DaemonResponse> invalid = daemon.submit(nan_threshold);
        std::future<DaemonResponse> last = daemon.submit(valid);
        const DaemonResponse a = first.get();
        EXPECT_THROW(invalid.get(), FatalError);
        const DaemonResponse b = last.get();
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_FALSE(a.result.regions.empty());
        expectResultsBitEqual(a.result, b.result);
        const DaemonStats after = daemon.stats();
        shared_batch = after.batches == before.batches + 1 &&
                       after.coalesced == before.coalesced + 2;
    }
    EXPECT_TRUE(shared_batch);

    // A NaN budget fails the same way, and the daemon keeps serving.
    svc::TuningRequest nan_budget = tinyRequest();
    nan_budget.budget = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(daemon.submit(nan_budget).get(), FatalError);
    const DaemonResponse after = daemon.submit(tinyRequest("other")).get();
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(after.result.regions.empty());
}

TEST(TuningDaemon, CountsFailedRequests)
{
    const obs::Counter failed_series =
        obs::MetricsRegistry::global().counter("daemon.failed");
    const std::uint64_t failed0 = failed_series.value();

    TuningDaemon daemon(fastConfig());
    svc::TuningRequest nan_budget = tinyRequest();
    nan_budget.budget = std::numeric_limits<double>::quiet_NaN();
    std::future<DaemonResponse> valid = daemon.submit(tinyRequest());
    std::future<DaemonResponse> invalid = daemon.submit(nan_budget);
    daemon.drain();
    EXPECT_TRUE(valid.get().ok());
    EXPECT_THROW(invalid.get(), FatalError);

    // The failed request is counted: admitted == completed + failed.
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.shedQueueFull + stats.shedDraining, 0u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(failed_series.value() - failed0, 1u);
    }
}

TEST(TuningDaemon, WarmGroupsStayOnTheBatcher)
{
    DaemonOptions options;
    options.service.jobs = 2;
    TuningDaemon daemon(fastConfig(), options);
    // One grid and its analyses at two budgets.
    const std::vector<svc::TuningRequest> classes = {
        tinyRequest("tiny", 1.3), tinyRequest("tiny", 1.6)};
    for (const svc::TuningRequest &request : classes)
        ASSERT_TRUE(daemon.submit(request).get().ok());

    // Read before the direct service below runs: its builds use the
    // pool too.
    const obs::Counter pool_tasks =
        obs::MetricsRegistry::global().counter("exec.pool.tasks_submitted");
    const std::uint64_t tasks0 = pool_tasks.value();
    std::vector<std::future<DaemonResponse>> futures;
    for (std::size_t i = 0; i < 64; ++i)
        futures.push_back(daemon.submit(classes[i % classes.size()]));
    daemon.drain();
    const std::uint64_t tasks1 = pool_tasks.value();

    std::vector<DaemonResponse> responses;
    for (std::future<DaemonResponse> &future : futures) {
        responses.push_back(future.get());
        ASSERT_TRUE(responses.back().ok());
        EXPECT_TRUE(responses.back().result.cacheHit);
        EXPECT_TRUE(responses.back().result.analysisCacheHit);
    }
    // Every group was a cache hit, so none became a pool task.
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(tasks1, tasks0);
    }

    svc::CharacterizationService direct(fastConfig());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const svc::TuningResult expected = direct.submit(classes[c]);
        for (std::size_t i = c; i < responses.size(); i += classes.size())
            expectResultsBitEqual(responses[i].result, expected);
    }
}

TEST(TuningDaemon, LaterBatchesJoinAGridBeingBuilt)
{
    // One request per batch: the second, identical request reaches the
    // batcher while the first one's grid is still building.  It joins
    // that build and runs after the first (or, arriving later, finds
    // both caches warm), so the first request builds the grid and the
    // analysis is computed and stored once.
    const std::string dir = "daemon_join_store";
    fs::remove_all(dir);
    DaemonOptions options;
    options.service.jobs = 2;
    options.maxBatch = 1;
    options.storeDir = dir;
    TuningDaemon daemon(fastConfig(), options);
    std::future<DaemonResponse> first = daemon.submit(tinyRequest());
    std::future<DaemonResponse> second = daemon.submit(tinyRequest());
    const DaemonResponse a = first.get();
    const DaemonResponse b = second.get();
    daemon.drain();

    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(a.result.cacheHit);
    EXPECT_TRUE(b.result.cacheHit);
    EXPECT_TRUE(b.result.analysisCacheHit);
    EXPECT_EQ(a.result.grid.get(), b.result.grid.get());
    EXPECT_EQ(daemon.stats().batches, 2u);
    EXPECT_EQ(daemon.store()->stats().gridStores, 1u);
    EXPECT_EQ(daemon.store()->stats().analysisStores, 1u);
    fs::remove_all(dir);
}

TEST(TuningDaemon, CountsEachCoalescedRequestOnce)
{
    // One cold request, then 63 identical ones while its grid builds:
    // the later batches' groups join that build, or, once it is done,
    // their leads hit the cache.  Either way a request is coalesced at
    // most once, and the first one never is.
    DaemonOptions options;
    options.service.jobs = 1;
    TuningDaemon daemon(fastConfig(), options);
    std::vector<std::future<DaemonResponse>> futures;
    futures.push_back(daemon.submit(tinyRequest()));
    while (daemon.queueDepth() != 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    for (std::size_t i = 1; i < 64; ++i)
        futures.push_back(daemon.submit(tinyRequest()));
    daemon.drain();

    for (std::future<DaemonResponse> &future : futures)
        ASSERT_TRUE(future.get().ok());
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.admitted, 64u);
    EXPECT_LE(stats.coalesced, stats.admitted - 1);
}

TEST(TuningDaemon, BuildTaskEndsUnderSteadyTrafficOnItsKey)
{
    // One pool worker, so a second key's build task waits behind the
    // first key's.  While the first key's grid builds, four callers
    // start to keep 32 requests each in flight on it, every one a new
    // budget (an analysis miss), so they resubmit faster than a build
    // task analyzes.  The build task must still end: it serves at
    // most the requests in flight at its two takes, and the key's
    // later traffic runs on the batcher.  The second build must finish
    // while that traffic goes on.
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kWindow = 32;
    DaemonOptions options;
    options.service.jobs = 1;
    TuningDaemon daemon(fastConfig(), options);
    std::future<DaemonResponse> lead = daemon.submit(tinyRequest("first"));
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> served{0};
    std::vector<std::vector<DaemonResponse>> responses(kCallers);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            std::deque<std::future<DaemonResponse>> window;
            std::size_t next = c;
            while (!stop.load()) {
                while (window.size() < kWindow) {
                    const double budget = 1.3 + 1e-6 * double(next);
                    window.push_back(
                        daemon.submit(tinyRequest("first", budget)));
                    next += kCallers;
                }
                responses[c].push_back(window.front().get());
                window.pop_front();
                served.fetch_add(1);
            }
            for (std::future<DaemonResponse> &future : window)
                responses[c].push_back(future.get());
        });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (served.load() < 4 * kCallers * kWindow &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::future<DaemonResponse> second =
        daemon.submit(tinyRequest("second"));
    const bool finished =
        second.wait_until(deadline) == std::future_status::ready;
    stop.store(true);
    for (std::thread &caller : callers)
        caller.join();
    daemon.drain();

    ASSERT_TRUE(finished);
    const DaemonResponse response = second.get();
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.result.cacheHit);

    // The build task's members all report its grid stage; the batcher's
    // report their own probe.  Stage clocks read zero with metrics off.
    std::vector<DaemonResponse> first{lead.get()};
    for (std::vector<DaemonResponse> &caller : responses) {
        for (DaemonResponse &r : caller) {
            ASSERT_TRUE(r.ok());
            first.push_back(std::move(r));
        }
    }
    const auto builder =
        std::find_if(first.begin(), first.end(), [](const auto &r) {
            return !r.result.cacheHit;
        });
    ASSERT_NE(builder, first.end());
    if (obs::kMetricsEnabled) {
        const auto on_build_task =
            std::count_if(first.begin(), first.end(), [&](const auto &r) {
                return r.gridNs == builder->gridNs;
            });
        EXPECT_LE(static_cast<std::size_t>(on_build_task),
                  1 + 2 * kCallers * kWindow);
    }
}

TEST(TuningDaemon, JournalClassIdIsTheFnv1aOfTheWorkload)
{
    obs::DecisionJournal journal;
    TuningDaemon daemon(fastConfig());
    daemon.setJournal(&journal);
    ASSERT_TRUE(daemon.submit(tinyRequest("gobmk")).get().ok());
    daemon.drain();
    ASSERT_EQ(journal.requestRecords().size(), 1u);
    const obs::RequestRecord &record = journal.requestRecords().front();
    EXPECT_EQ(record.workload, "gobmk");
    EXPECT_EQ(record.classId, fnv1aString(kFnvOffsetBasis, "gobmk"));
}

TEST(TuningDaemon, RejectsZeroSizing)
{
    DaemonOptions zero_queue;
    zero_queue.queueCapacity = 0;
    EXPECT_THROW(TuningDaemon(fastConfig(), zero_queue), FatalError);
    DaemonOptions zero_batch;
    zero_batch.maxBatch = 0;
    EXPECT_THROW(TuningDaemon(fastConfig(), zero_batch), FatalError);
}

} // namespace
} // namespace mcdvfs

/**
 * @file
 * End-to-end instrumentation tests: every counter, gauge and
 * histogram the library registers is exercised here through the real
 * code path that owns it, asserting before/after deltas against the
 * process-wide registry.  The catalog lives in docs/OBSERVABILITY.md;
 * a metric nobody can move here is a metric that should not exist.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "daemon/tuning_daemon.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "repro/analyses.hh"
#include "runtime/budget_arbiter.hh"
#include "runtime/tuning_loop.hh"
#include "sched/scheduler.hh"
#include "sim/profile_cache.hh"
#include "sim/reference_kernel.hh"
#include "sim/sample_simulator.hh"
#include "svc/characterization_service.hh"
#include "svc/grid_cache.hh"
#include "test_grid.hh"
#include "trace/trace_generator.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

#define REQUIRE_METRICS_ON()                                           \
    if (!obs::kMetricsEnabled)                                         \
    GTEST_SKIP() << "metrics disabled in this build"

/** Reads of the global registry by name (registration idempotent). */
std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

std::int64_t
gaugeValue(const char *name)
{
    return obs::MetricsRegistry::global().gauge(name).value();
}

std::uint64_t
histogramCount(const char *name)
{
    return obs::MetricsRegistry::global()
        .histogram(name, obs::MetricsRegistry::latencyBucketsNs())
        .count();
}

TEST(ObsInstrumentation, ThreadPoolSubmitAndWorkerGauges)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t submitted0 =
        counterValue("exec.pool.tasks_submitted");
    const std::uint64_t executed0 =
        counterValue("exec.pool.tasks_executed");
    const std::uint64_t waits0 = histogramCount("exec.pool.queue_wait_ns");
    const std::uint64_t runs0 = histogramCount("exec.pool.task_run_ns");
    const std::int64_t workers0 = gaugeValue("exec.pool.workers");
    const std::uint64_t wakes0 = counterValue("exec.pool.wakes");

    {
        exec::ThreadPool pool(2);
        EXPECT_EQ(gaugeValue("exec.pool.workers"), workers0 + 2);
        std::vector<std::future<int>> futures;
        for (int i = 0; i < 4; ++i)
            futures.push_back(pool.submit([i] { return i; }));
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(futures[i].get(), i);
    }

    EXPECT_EQ(counterValue("exec.pool.tasks_submitted"), submitted0 + 4);
    EXPECT_EQ(counterValue("exec.pool.tasks_executed"), executed0 + 4);
    EXPECT_EQ(histogramCount("exec.pool.queue_wait_ns"), waits0 + 4);
    EXPECT_EQ(histogramCount("exec.pool.task_run_ns"), runs0 + 4);
    EXPECT_EQ(gaugeValue("exec.pool.workers"), workers0);
    EXPECT_EQ(gaugeValue("exec.pool.active_workers"), 0);
    // Each wake hands a waiting worker one task; how many of the four
    // found a worker waiting depends on timing.
    EXPECT_LE(counterValue("exec.pool.wakes"), wakes0 + 4);
}

TEST(ObsInstrumentation, ThreadPoolInlineSubmitCounts)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t submitted0 =
        counterValue("exec.pool.tasks_submitted");
    const std::uint64_t executed0 =
        counterValue("exec.pool.tasks_executed");
    const std::uint64_t wakes0 = counterValue("exec.pool.wakes");

    exec::ThreadPool pool(0);
    EXPECT_EQ(pool.submit([] { return 9; }).get(), 9);

    EXPECT_EQ(counterValue("exec.pool.tasks_submitted"), submitted0 + 1);
    EXPECT_EQ(counterValue("exec.pool.tasks_executed"), executed0 + 1);
    // No worker ran it, so no worker woke.
    EXPECT_EQ(counterValue("exec.pool.wakes"), wakes0);
}

TEST(ObsInstrumentation, ThreadPoolParallelForLoopAndChunkCounts)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t loops0 =
        counterValue("exec.pool.parallel_for_loops");
    const std::uint64_t chunks0 =
        counterValue("exec.pool.parallel_for_chunks");

    exec::ThreadPool pool(2);
    std::atomic<std::size_t> touched{0};
    pool.parallelFor(0, 10, [&](std::size_t) { ++touched; },
                     /*grain=*/3);
    EXPECT_EQ(touched.load(), 10u);

    EXPECT_EQ(counterValue("exec.pool.parallel_for_loops"), loops0 + 1);
    // ceil(10 / 3) = 4 chunks.
    EXPECT_EQ(counterValue("exec.pool.parallel_for_chunks"),
              chunks0 + 4);
}

TEST(ObsInstrumentation, GridCacheCountersAndEntriesGauge)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t hits0 = counterValue("svc.cache.hits");
    const std::uint64_t misses0 = counterValue("svc.cache.misses");
    const std::uint64_t evictions0 = counterValue("svc.cache.evictions");
    const std::uint64_t inserts0 = counterValue("svc.cache.inserts");
    const std::int64_t entries0 = gaugeValue("svc.cache.entries");

    auto grid = std::make_shared<const MeasuredGrid>(
        "g", SettingsSpace::coarse(), 4, 10'000'000);
    {
        svc::GridCache cache(1, /*shards=*/1);
        EXPECT_EQ(cache.find(svc::GridKey{1, 1, 1}), nullptr);  // miss
        cache.insert(svc::GridKey{1, 1, 1}, grid);
        EXPECT_NE(cache.find(svc::GridKey{1, 1, 1}), nullptr);  // hit
        cache.insert(svc::GridKey{2, 1, 1}, grid);              // evicts
        EXPECT_EQ(gaugeValue("svc.cache.entries"), entries0 + 1);
    }

    EXPECT_EQ(counterValue("svc.cache.hits"), hits0 + 1);
    EXPECT_EQ(counterValue("svc.cache.misses"), misses0 + 1);
    EXPECT_EQ(counterValue("svc.cache.evictions"), evictions0 + 1);
    EXPECT_EQ(counterValue("svc.cache.inserts"), inserts0 + 2);
    // The destructor returns resident entries to the gauge.
    EXPECT_EQ(gaugeValue("svc.cache.entries"), entries0);
}

TEST(ObsInstrumentation, ServiceRequestBatchAndBuildCounters)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t requests0 = counterValue("svc.service.requests");
    const std::uint64_t builds0 =
        counterValue("svc.service.grid_builds");
    const std::uint64_t hits0 = counterValue("svc.cache.hits");
    const std::uint64_t submits0 =
        histogramCount("svc.service.submit_ns");
    const std::uint64_t buildNs0 = histogramCount("svc.service.build_ns");

    svc::CharacterizationService service(test::fastSystemConfig());
    const svc::TuningRequest request{test::steadyWorkload(),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    service.submit(request);
    service.submit(request);  // same fingerprint: cache hit
    service.submit(request);
    service.submit(request);

    EXPECT_EQ(counterValue("svc.service.requests"), requests0 + 4);
    EXPECT_EQ(counterValue("svc.service.grid_builds"), builds0 + 1);
    EXPECT_EQ(counterValue("svc.cache.hits"), hits0 + 3);
    EXPECT_EQ(histogramCount("svc.service.submit_ns"), submits0 + 4);
    EXPECT_EQ(histogramCount("svc.service.build_ns"), buildNs0 + 1);
}

TEST(ObsInstrumentation, GridRunnerBuildAndCellCounters)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t builds0 = counterValue("sim.grid.builds");
    const std::uint64_t samples0 =
        counterValue("sim.grid.samples_evaluated");
    const std::uint64_t cells0 =
        counterValue("sim.grid.cells_evaluated");
    const std::uint64_t iters0 =
        counterValue("sim.grid.fixed_point_iterations");
    const std::uint64_t buildNs0 = histogramCount("sim.grid.build_ns");

    GridRunner runner(test::fastSystemConfig());
    const SettingsSpace space = SettingsSpace::coarse();
    const MeasuredGrid grid =
        runner.run(test::phasedWorkload(), space);

    EXPECT_EQ(counterValue("sim.grid.builds"), builds0 + 1);
    EXPECT_EQ(counterValue("sim.grid.samples_evaluated"),
              samples0 + grid.sampleCount());
    EXPECT_EQ(counterValue("sim.grid.cells_evaluated"),
              cells0 + grid.sampleCount() * space.size());
    // The phased workload misses in DRAM and the default timing model
    // iterates the bandwidth fixed point, so iterations accumulate.
    EXPECT_GT(counterValue("sim.grid.fixed_point_iterations"), iters0);
    EXPECT_EQ(histogramCount("sim.grid.build_ns"), buildNs0 + 1);
}

TEST(ObsInstrumentation, CharacterizeCountersCountEveryStream)
{
    REQUIRE_METRICS_ON();
    // 50k warm-up instructions over 20k samples: two full warm-up
    // chunks and a short one, so the last warm-up ends mid-sample.
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.profileWarmupInstructions = 50'000;
    const WorkloadProfile gobmk = workloadByName("gobmk");
    const std::size_t samples = 5;
    const WorkloadProfile workload(
        "gobmk-cut", samples,
        [&gobmk](std::size_t s) { return gobmk.phaseFor(s); }, 41,
        /*jitter=*/0.0);

    // The same streams, one generator at a time: each sample's three
    // warm-ups (seeds as SampleSimulator derives them), then the sample.
    Count want_refs = 0;
    std::vector<MemoryRef> refs;
    for (std::size_t s = 0; s < samples; ++s) {
        const PhaseSpec &spec = workload.phaseFor(s);
        const std::uint64_t seed = workload.traceSeedFor(s);
        const Count warmups[] = {20'000, 20'000, 10'000};
        for (std::size_t w = 0; w < std::size(warmups); ++w) {
            TraceGenerator gen(
                spec,
                seed ^ (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull));
            gen.nextMemoryRefs(warmups[w], refs);
            want_refs += refs.size();
        }
        TraceGenerator gen(spec, seed);
        gen.nextMemoryRefs(config.simInstructionsPerSample, refs);
        want_refs += refs.size();
    }

    const std::uint64_t instructions0 =
        counterValue("sim.characterize.instructions");
    const std::uint64_t memoryRefs0 =
        counterValue("sim.characterize.memory_refs");
    SampleSimulator simulator(config);
    ProfileCache cache(64);
    simulator.setProfileCache(&cache);
    simulator.characterize(workload);
    ASSERT_EQ(simulator.lastCharacterizeStats().cacheMisses, samples);

    EXPECT_EQ(counterValue("sim.characterize.instructions"),
              instructions0 + samples * (config.profileWarmupInstructions +
                                         config.simInstructionsPerSample));
    EXPECT_EQ(counterValue("sim.characterize.memory_refs"),
              memoryRefs0 + want_refs);
}

TEST(ObsInstrumentation, ReferenceKernelCounters)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t builds0 = counterValue("sim.reference.builds");
    const std::uint64_t cells0 =
        counterValue("sim.reference.cells_evaluated");
    const std::uint64_t buildNs0 =
        histogramCount("sim.reference.build_ns");

    const SystemConfig config = test::fastSystemConfig();
    const WorkloadProfile workload = test::steadyWorkload();
    SampleSimulator simulator(config.sampler);
    const std::vector<SampleProfile> profiles =
        simulator.characterize(workload);
    const SettingsSpace space = SettingsSpace::coarse();
    const MeasuredGrid grid = referenceGridWithProfiles(
        config, workload.name(), profiles, space,
        workload.modeledInstructionsPerSample());

    EXPECT_EQ(counterValue("sim.reference.builds"), builds0 + 1);
    EXPECT_EQ(counterValue("sim.reference.cells_evaluated"),
              cells0 + grid.sampleCount() * space.size());
    EXPECT_EQ(histogramCount("sim.reference.build_ns"), buildNs0 + 1);
}

TEST(ObsInstrumentation, TuningLoopOverheadLedger)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t evals0 =
        counterValue("runtime.tuning.evaluations");
    const std::uint64_t events0 = counterValue("runtime.tuning.events");
    const std::uint64_t transitions0 =
        counterValue("runtime.tuning.transitions");
    const std::uint64_t timeNs0 =
        counterValue("runtime.tuning.overhead_time_ns");
    const std::uint64_t energyNj0 =
        counterValue("runtime.tuning.overhead_energy_nj");
    const std::uint64_t violations0 =
        counterValue("runtime.tuning.budget_violations");

    GridAnalyses analyses(test::phasedGrid());
    const TuningCostModel cost{TuningCostParams{}};
    const TuningLoop loop(analyses.clusters, analyses.regions, cost);
    const TuningLoopResult result = loop.runEverySample(1.3, 0.03);

    EXPECT_EQ(counterValue("runtime.tuning.evaluations"), evals0 + 1);
    EXPECT_EQ(counterValue("runtime.tuning.events"),
              events0 + result.tuningEvents);
    EXPECT_EQ(counterValue("runtime.tuning.transitions"),
              transitions0 + result.transitions);
    // The ledger accumulates the charged overhead (500 us + 30 uJ per
    // event by default) in integer nano-units.
    ASSERT_GT(result.tuningEvents, 0u);
    EXPECT_NEAR(static_cast<double>(
                    counterValue("runtime.tuning.overhead_time_ns") -
                    timeNs0),
                (result.timeWithOverhead - result.time) * 1e9, 100.0);
    EXPECT_NEAR(static_cast<double>(
                    counterValue("runtime.tuning.overhead_energy_nj") -
                    energyNj0),
                (result.energyWithOverhead - result.energy) * 1e9,
                100.0);
    const auto violations = static_cast<std::uint64_t>(std::llround(
        result.budgetViolationFrac *
        static_cast<double>(test::phasedGrid().sampleCount())));
    EXPECT_EQ(counterValue("runtime.tuning.budget_violations"),
              violations0 + violations);
}

TEST(ObsInstrumentation, BudgetArbiterDecisionCounters)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t decisions0 =
        counterValue("runtime.arbiter.decisions");
    const std::uint64_t kept0 = counterValue("runtime.arbiter.kept");
    const std::uint64_t retunes0 =
        counterValue("runtime.arbiter.retunes");
    const std::uint64_t capped0 = counterValue("runtime.arbiter.capped");
    const std::uint64_t switches0 =
        counterValue("runtime.arbiter.row_switches");

    const MeasuredGrid &grid = test::phasedGrid();
    GridAnalyses analyses(grid);
    const FrequencySetting min = grid.space().minSetting();
    runtime::CapRow tight;
    tight.budget = 1.0;
    tight.cpuPriority = {min.cpu, min.mem, megaHertz(900)};
    tight.gpuPriority = tight.cpuPriority;
    runtime::CapRow roomy;
    roomy.budget = 2.0;
    roomy.cpuPriority = {megaHertz(1000), megaHertz(800),
                         megaHertz(900)};
    roomy.gpuPriority = roomy.cpuPriority;
    runtime::BudgetArbiter arbiter(analyses.clusters, 1.3, 0.03,
                                   {tight, roomy});

    // Half the run at the default (unconstrained) budget on the roomy
    // row, then the budget drops below the first row: one row switch,
    // and the tight caps — min setting only — force capped decisions.
    FrequencySetting current = arbiter.decide(nullptr);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        if (s == grid.sampleCount() / 2)
            arbiter.setSystemBudget(0.5);
        SampleObservation obs;
        obs.sampleIndex = s;
        obs.setting = current;
        current = arbiter.decide(&obs);
    }

    EXPECT_EQ(counterValue("runtime.arbiter.decisions") - decisions0,
              arbiter.decisions());
    EXPECT_EQ(counterValue("runtime.arbiter.kept") - kept0,
              arbiter.keptSetting());
    EXPECT_EQ(counterValue("runtime.arbiter.retunes") - retunes0,
              arbiter.retuned());
    EXPECT_EQ(counterValue("runtime.arbiter.capped") - capped0,
              arbiter.capped());
    EXPECT_EQ(counterValue("runtime.arbiter.row_switches") - switches0,
              1u);
    EXPECT_EQ(arbiter.decisions(), grid.sampleCount() + 1);
    EXPECT_GT(arbiter.capped(), 0u);
}

TEST(ObsInstrumentation, DaemonPipelineAndSnapshotCounters)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t admitted0 = counterValue("daemon.admitted");
    const std::uint64_t completed0 = counterValue("daemon.completed");
    const std::uint64_t batches0 = counterValue("daemon.batches");
    const std::uint64_t batcherCpu0 = counterValue("daemon.batcher_cpu_ns");
    const std::uint64_t batcherWakes0 =
        counterValue("daemon.batcher_wakes");
    obs::Counter drain_shed = obs::MetricsRegistry::global().counter(
        "daemon.shed", {{"reason", "draining"}});
    const std::uint64_t drainShed0 = drain_shed.value();
    const std::uint64_t queueWaits0 =
        histogramCount("daemon.queue_wait_ns");
    const std::uint64_t gridStages0 =
        histogramCount("daemon.grid_stage_ns");
    const std::uint64_t analysisStages0 =
        histogramCount("daemon.analysis_stage_ns");
    const std::uint64_t requests0 = histogramCount("daemon.request_ns");
    const std::uint64_t gridStores0 =
        counterValue("daemon.snapshot.grid_stores");
    const std::uint64_t gridLoads0 =
        counterValue("daemon.snapshot.grid_loads");
    const std::uint64_t analysisStores0 =
        counterValue("daemon.snapshot.analysis_stores");
    const std::uint64_t analysisLoads0 =
        counterValue("daemon.snapshot.analysis_loads");
    const std::uint64_t loadErrors0 =
        counterValue("daemon.snapshot.load_errors");
    const std::uint64_t storeNs0 =
        histogramCount("daemon.snapshot.store_ns");
    const std::uint64_t loadNs0 =
        histogramCount("daemon.snapshot.load_ns");
    const std::uint64_t buildCpu0 = counterValue("daemon.build_cpu_ns");
    const std::uint64_t instructions0 =
        counterValue("sim.characterize.instructions");
    const std::uint64_t memoryRefs0 =
        counterValue("sim.characterize.memory_refs");

    const std::string dir = "obs_daemon_store";
    std::filesystem::remove_all(dir);
    daemon::DaemonOptions options;
    options.service.jobs = 2;
    options.storeDir = dir;
    const svc::TuningRequest request{test::steadyWorkload(),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    {
        daemon::TuningDaemon server(test::fastSystemConfig(), options);
        std::future<daemon::DaemonResponse> first =
            server.submit(request);
        std::future<daemon::DaemonResponse> second =
            server.submit(request);
        EXPECT_TRUE(first.get().ok());
        EXPECT_TRUE(second.get().ok());
        server.drain();
        EXPECT_EQ(server.submit(request).get().shed,
                  daemon::ShedReason::Draining);
    }

    EXPECT_EQ(counterValue("daemon.admitted"), admitted0 + 2);
    EXPECT_EQ(counterValue("daemon.completed"), completed0 + 2);
    EXPECT_EQ(drain_shed.value(), drainShed0 + 1);
    // The two identical requests land in one or two batches/groups
    // depending on batcher timing; either way both complete.
    EXPECT_GE(counterValue("daemon.batches"), batches0 + 1);
    // The batcher's CPU and wakes are counted per batch; a wake starts
    // at least the first batch and at most every batch.
    EXPECT_GT(counterValue("daemon.batcher_cpu_ns"), batcherCpu0);
    const std::uint64_t wakes =
        counterValue("daemon.batcher_wakes") - batcherWakes0;
    EXPECT_GE(wakes, 1u);
    EXPECT_LE(wakes, counterValue("daemon.batches") - batches0);
    EXPECT_GE(histogramCount("daemon.grid_stage_ns"), gridStages0 + 1);
    EXPECT_EQ(histogramCount("daemon.queue_wait_ns"), queueWaits0 + 2);
    EXPECT_EQ(histogramCount("daemon.analysis_stage_ns"),
              analysisStages0 + 2);
    EXPECT_EQ(histogramCount("daemon.request_ns"), requests0 + 2);
    EXPECT_EQ(gaugeValue("daemon.queue_depth"), 0);
    // One grid fingerprint, one analysis key: each persisted once.
    EXPECT_EQ(counterValue("daemon.snapshot.grid_stores"),
              gridStores0 + 1);
    EXPECT_EQ(counterValue("daemon.snapshot.analysis_stores"),
              analysisStores0 + 1);
    EXPECT_EQ(histogramCount("daemon.snapshot.store_ns"), storeNs0 + 2);
    // The cold request built its grid in a pool task, which
    // characterized its samples.
    const std::uint64_t buildCpu1 = counterValue("daemon.build_cpu_ns");
    const std::uint64_t instructions1 =
        counterValue("sim.characterize.instructions");
    const std::uint64_t memoryRefs1 =
        counterValue("sim.characterize.memory_refs");
    EXPECT_GT(buildCpu1, buildCpu0);
    EXPECT_GT(instructions1, instructions0);
    EXPECT_GT(memoryRefs1, memoryRefs0);
    EXPECT_LT(memoryRefs1 - memoryRefs0, instructions1 - instructions0);

    // A warm restart over the same store loads both snapshots back,
    // and serves the request with no build and no characterization.
    {
        daemon::TuningDaemon restarted(test::fastSystemConfig(),
                                       options);
        const daemon::DaemonStats stats = restarted.stats();
        EXPECT_EQ(stats.warmGrids, 1u);
        EXPECT_EQ(stats.warmAnalyses, 1u);
        EXPECT_TRUE(restarted.submit(request).get().ok());
    }
    EXPECT_EQ(counterValue("daemon.build_cpu_ns"), buildCpu1);
    EXPECT_EQ(counterValue("sim.characterize.instructions"),
              instructions1);
    EXPECT_EQ(counterValue("sim.characterize.memory_refs"), memoryRefs1);
    EXPECT_EQ(counterValue("daemon.snapshot.grid_loads"),
              gridLoads0 + 1);
    EXPECT_EQ(counterValue("daemon.snapshot.analysis_loads"),
              analysisLoads0 + 1);
    EXPECT_EQ(counterValue("daemon.snapshot.load_errors"), loadErrors0);
    EXPECT_EQ(histogramCount("daemon.snapshot.load_ns"), loadNs0 + 2);
    std::filesystem::remove_all(dir);
}

/** Every counter series of the global registry, by canonical name. */
std::map<std::string, std::uint64_t>
counterSeries()
{
    std::map<std::string, std::uint64_t> values;
    for (const auto &[name, value] :
         obs::MetricsRegistry::global().snapshot().counters)
        values[name] = value;
    return values;
}

/**
 * Every counted stats() field of @c server, its snapshot store and its
 * service's caches, keyed by the series the field's OwnedCounter feeds.
 */
std::map<std::string, std::uint64_t>
ownedCounts(daemon::TuningDaemon &server)
{
    const daemon::DaemonStats daemon = server.stats();
    const daemon::SnapshotStore::Stats store = server.store()->stats();
    std::map<std::string, std::uint64_t> counts = {
        {"daemon.admitted", daemon.admitted},
        {"daemon.shed{reason=queue_full}", daemon.shedQueueFull},
        {"daemon.shed{reason=draining}", daemon.shedDraining},
        {"daemon.batches", daemon.batches},
        {"daemon.coalesced", daemon.coalesced},
        {"daemon.completed", daemon.completed},
        {"daemon.failed", daemon.failed},
        {"daemon.analysis_resumed", daemon.analysisResumed},
        {"daemon.snapshot.grid_stores", store.gridStores},
        {"daemon.snapshot.grid_loads", store.gridLoads},
        {"daemon.snapshot.analysis_stores", store.analysisStores},
        {"daemon.snapshot.analysis_loads", store.analysisLoads},
        {"daemon.snapshot.load_errors", store.loadErrors},
        {"daemon.snapshot.store_errors", store.storeErrors},
    };
    const auto add_cache = [&counts](const std::string &prefix,
                                     const auto &stats) {
        counts[prefix + ".hits"] = stats.hits;
        counts[prefix + ".misses"] = stats.misses;
        counts[prefix + ".evictions"] = stats.evictions;
    };
    const svc::CharacterizationService &service = server.service();
    add_cache("svc.cache", service.cacheStats());
    add_cache("svc.analysis", service.analysisStats());
    add_cache("svc.checkpoint", service.checkpointStats());
    add_cache("svc.profile", service.profileStats());
    return counts;
}

/** Each owned count must equal its series' movement since @c before. */
void
expectStatsEqualTheirSeries(
    daemon::TuningDaemon &server,
    const std::map<std::string, std::uint64_t> &before)
{
    const std::map<std::string, std::uint64_t> after = counterSeries();
    const auto read = [](const std::map<std::string, std::uint64_t> &values,
                         const std::string &name) -> std::uint64_t {
        const auto it = values.find(name);
        return it == values.end() ? 0 : it->second;
    };
    for (const auto &[name, owned] : ownedCounts(server))
        EXPECT_EQ(read(after, name) - read(before, name), owned) << name;
}

TEST(ObsInstrumentation, StatsEqualTheirSeries)
{
    REQUIRE_METRICS_ON();
    // Drive one daemon with a store through misses, hits, an analysis
    // eviction, a failure and a shed, then warm-restart it over a
    // store holding one corrupt file and lose the directory under it:
    // every counted stats() field must equal its series' delta.
    const std::string dir = "obs_stats_store";
    std::filesystem::remove_all(dir);
    daemon::DaemonOptions options;
    options.service.jobs = 2;
    options.service.analysisCapacity = 1;
    options.service.profileCacheCapacity = 256;
    options.storeDir = dir;
    const svc::TuningRequest request{test::steadyWorkload(),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    svc::TuningRequest other_budget = request;
    other_budget.budget = 1.6;
    svc::TuningRequest nan_budget = request;
    nan_budget.budget = std::nan("");

    std::map<std::string, std::uint64_t> before = counterSeries();
    {
        daemon::TuningDaemon server(test::fastSystemConfig(), options);
        EXPECT_TRUE(server.submit(request).get().ok());
        EXPECT_TRUE(server.submit(request).get().result.analysisCacheHit);
        EXPECT_TRUE(server.submit(other_budget).get().ok());
        EXPECT_THROW(server.submit(nan_budget).get(), FatalError);
        server.drain();
        EXPECT_EQ(server.submit(request).get().shed,
                  daemon::ShedReason::Draining);

        const daemon::DaemonStats stats = server.stats();
        EXPECT_EQ(stats.failed, 1u);
        EXPECT_EQ(stats.admitted, stats.completed + stats.failed);
        EXPECT_GE(server.service().analysisStats().evictions, 1u);
        EXPECT_GE(server.service().profileStats().misses, 1u);
        expectStatsEqualTheirSeries(server, before);
    }

    std::ofstream(dir + "/grid-00000000deadbeef.snap") << "not a snapshot";
    before = counterSeries();
    {
        daemon::TuningDaemon restarted(test::fastSystemConfig(), options);
        EXPECT_EQ(restarted.stats().warmGrids, 1u);
        EXPECT_EQ(restarted.store()->stats().loadErrors, 1u);
        std::filesystem::remove_all(dir);
        svc::TuningRequest new_budget = request;
        new_budget.budget = 1.9;
        EXPECT_TRUE(restarted.submit(new_budget).get().result.cacheHit);
        restarted.drain();
        EXPECT_GE(restarted.store()->stats().storeErrors, 1u);
        expectStatsEqualTheirSeries(restarted, before);
    }
    std::filesystem::remove_all(dir);
}

TEST(ObsInstrumentation, SchedulerTransitionLedger)
{
    REQUIRE_METRICS_ON();
    const std::uint64_t runs0 = counterValue("sched.runs");
    const std::uint64_t samples0 =
        counterValue("sched.samples_executed");
    const std::uint64_t switches0 =
        counterValue("sched.context_switches");
    const std::uint64_t transitions0 =
        counterValue("sched.frequency_transitions");
    const std::uint64_t timeNs0 =
        counterValue("sched.transition_time_ns");
    const std::uint64_t energyNj0 =
        counterValue("sched.transition_energy_nj");

    AppTask a;
    a.name = "phased";
    a.grid = &test::phasedGrid();
    AppTask b;
    b.name = "steady";
    b.grid = &test::steadyGrid();
    const BudgetScheduler scheduler;
    const ScheduleResult result =
        scheduler.run({a, b}, SchedPolicy::RoundRobin);

    EXPECT_EQ(counterValue("sched.runs"), runs0 + 1);
    EXPECT_EQ(counterValue("sched.samples_executed"),
              samples0 + test::phasedGrid().sampleCount() +
                  test::steadyGrid().sampleCount());
    EXPECT_EQ(counterValue("sched.context_switches"),
              switches0 + result.contextSwitches);
    EXPECT_EQ(counterValue("sched.frequency_transitions"),
              transitions0 + result.frequencyTransitions);
    ASSERT_GT(result.frequencyTransitions, 0u);
    EXPECT_NEAR(static_cast<double>(
                    counterValue("sched.transition_time_ns") - timeNs0),
                result.transitionLatency * 1e9, 100.0);
    EXPECT_GT(counterValue("sched.transition_energy_nj"), energyNj0);
}

TEST(ObsInstrumentation, LabeledCounterFamiliesSumToUnlabeledTotals)
{
    REQUIRE_METRICS_ON();
    // Each test runs in its own process, so the global registry holds
    // only what this body produced.  Drive the daemon across two
    // workloads plus a draining shed, then check the dimensional
    // invariant: every `base{...}` family sums exactly to its
    // unlabeled base counter (sites bump both).
    daemon::DaemonOptions options;
    options.service.jobs = 2;
    const svc::TuningRequest phased{test::phasedWorkload(),
                                    SettingsSpace::coarse(), 1.3, 0.03};
    const svc::TuningRequest steady{test::steadyWorkload(),
                                    SettingsSpace::coarse(), 1.1, 0.05};
    {
        daemon::TuningDaemon server(test::fastSystemConfig(), options);
        std::future<daemon::DaemonResponse> first =
            server.submit(phased);
        std::future<daemon::DaemonResponse> second =
            server.submit(steady);
        EXPECT_TRUE(first.get().ok());
        EXPECT_TRUE(second.get().ok());
        server.drain();
        EXPECT_EQ(server.submit(phased).get().shed,
                  daemon::ShedReason::Draining);
    }
    // The daemon drives grids/analyses directly; the front-door
    // service path owns svc.service.requests{wl}.
    {
        svc::CharacterizationService service(test::fastSystemConfig());
        service.submit(phased);
        service.submit(steady);
    }

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    std::map<std::string, std::uint64_t> base;
    std::map<std::string, std::uint64_t> labeledSum;
    for (const auto &[name, value] : snap.counters) {
        const std::size_t brace = name.find('{');
        if (brace == std::string::npos) {
            base[name] = value;
        } else if (name.find("overflow=true") == std::string::npos) {
            labeledSum[name.substr(0, brace)] += value;
        }
    }
    std::size_t families = 0;
    for (const auto &[family, sum] : labeledSum) {
        const auto it = base.find(family);
        ASSERT_NE(it, base.end()) << family << " has no base counter";
        EXPECT_EQ(it->second, sum) << family;
        ++families;
    }
    // The run above must have produced the three labeled families the
    // daemon path owns (arbiter capping only fires with a GPU domain).
    EXPECT_GE(families, 3u);
    EXPECT_EQ(labeledSum.count("daemon.completed"), 1u);
    EXPECT_EQ(labeledSum.count("daemon.shed"), 1u);
    EXPECT_EQ(labeledSum.count("svc.service.requests"), 1u);
}

} // namespace
} // namespace mcdvfs

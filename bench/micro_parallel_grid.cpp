/**
 * @file
 * Micro-benchmarks of the concurrent characterization service: serial
 * vs parallel grid construction throughput (the dominant cost of every
 * figure), the latency of a cache-hit tuning request vs a cold one,
 * the set-up cost of building the workload profile a request carries,
 * and the snapshot store's warm load (serial and pooled), grid write
 * and daemon restart over a store at and over its grid cache's
 * capacity (--benchmark_filter=Store; the binary exits 1 if any of
 * their loads or writes fails).
 *
 * The parallel build fans the per-setting model evaluation over a
 * thread pool (bit-identical results; see sim/grid_runner.hh), so the
 * interesting numbers are the scaling of cells/second with workers and
 * how much of a request the grid cache removes.
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench_json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "daemon/snapshot_store.hh"
#include "daemon/tuning_daemon.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "svc/characterization_service.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

/** Shared characterization (profiles are worker-count independent). */
struct Fixtures
{
    WorkloadProfile workload;
    std::vector<SampleProfile> profiles;

    static const Fixtures &
    get()
    {
        static const Fixtures fixtures;
        return fixtures;
    }

  private:
    Fixtures() : workload(workloadByName("gobmk"))
    {
        SampleSimulator simulator(SystemConfig::paperDefault().sampler);
        profiles = simulator.characterize(workload);
    }
};

/** Grid build over the fine 496-setting space with @c workers threads. */
void
gridBuild(benchmark::State &state, std::size_t workers)
{
    const Fixtures &fixtures = Fixtures::get();
    const SettingsSpace space = SettingsSpace::fine();
    GridRunner runner;
    exec::ThreadPool pool(workers);
    if (workers > 0)
        runner.setThreadPool(&pool);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runner.runWithProfiles(
            fixtures.workload.name(), fixtures.profiles, space,
            fixtures.workload.modeledInstructionsPerSample()));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fixtures.profiles.size() *
                                  space.size()));
    state.counters["cells"] =
        static_cast<double>(fixtures.profiles.size() * space.size());
    // Extra counters picked up by the BENCH_grid.json emission below.
    state.counters["settings"] = static_cast<double>(space.size());
    state.counters["samples"] =
        static_cast<double>(fixtures.profiles.size());
    state.counters["jobs"] = static_cast<double>(workers);
}

void
BM_GridBuildSerial(benchmark::State &state)
{
    gridBuild(state, 0);
}
BENCHMARK(BM_GridBuildSerial)->Unit(benchmark::kMillisecond);

void
BM_GridBuildParallel(benchmark::State &state)
{
    gridBuild(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_GridBuildParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ServiceSubmitCacheHit(benchmark::State &state, const char *workload)
{
    // Fingerprints are stored at construction, so a hit should cost the
    // same for a 50-sample (gobmk) and a 170-sample (milc) workload.
    svc::ServiceOptions options;
    options.jobs = 2;
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         options);
    const svc::TuningRequest request{workloadByName(workload),
                                     SettingsSpace::coarse(), 1.3, 0.03};
    service.submit(request);  // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(service.submit(request));
}
BENCHMARK_CAPTURE(BM_ServiceSubmitCacheHit, gobmk, "gobmk")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServiceSubmitCacheHit, milc, "milc")
    ->Unit(benchmark::kMicrosecond);

void
BM_WorkloadProfileBuild(benchmark::State &state, const char *workload)
{
    // Every sample's script call, jitter, validation and fingerprint:
    // paid once per constructed profile, never per request.
    for (auto _ : state)
        benchmark::DoNotOptimize(workloadByName(workload));
}
BENCHMARK_CAPTURE(BM_WorkloadProfileBuild, gobmk, "gobmk")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WorkloadProfileBuild, milc, "milc")
    ->Unit(benchmark::kMicrosecond);

void
BM_ServiceGridCacheHit(benchmark::State &state)
{
    // Pure cache-hit latency: fingerprint + sharded LRU lookup,
    // without the analysis chain of a full submit().
    svc::CharacterizationService service;
    const WorkloadProfile workload = workloadByName("gobmk");
    const SettingsSpace space = SettingsSpace::coarse();
    service.grid(workload, space);  // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(service.grid(workload, space));
}
BENCHMARK(BM_ServiceGridCacheHit)->Unit(benchmark::kMicrosecond);

/** Set when a store benchmark saw a failed load or write. */
bool storeFailed = false;

/**
 * A fine()-space grid of @c samples with profiles and arbitrary cell
 * values: a snapshot's size and layout without characterizing anything.
 */
MeasuredGrid
syntheticGrid(std::size_t samples, std::uint64_t seed)
{
    MeasuredGrid grid("store-" + std::to_string(seed),
                      SettingsSpace::fine(), samples, 100'000);
    Rng rng(seed);
    std::vector<SampleProfile> profiles(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        MeasuredGrid::RowView row = grid.fillRow(s);
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            row.seconds[k] = 1e-3 * (1.0 + rng.uniform());
            row.cpuEnergy[k] = rng.uniform();
            row.memEnergy[k] = rng.uniform();
            row.busyFrac[k] = rng.uniform();
            row.bwUtil[k] = rng.uniform();
        }
        grid.updateSampleAggregates(s);
        profiles[s].phaseName = "phase-" + std::to_string(s % 4);
        profiles[s].baseCpi = 1.0 + rng.uniform();
    }
    grid.setProfiles(std::move(profiles));
    return grid;
}

svc::GridKey
storeKey(std::uint64_t workload)
{
    svc::GridKey key;
    key.workload = workload;
    key.space = 1;
    key.config = 2;
    return key;
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        bytes += entry.file_size();
    return bytes;
}

void
BM_StoreWarmLoad(benchmark::State &state)
{
    // Twelve fine() grids of 50-200 samples with profiles: the shape of
    // perfbench's primed store, which a restarting daemon loads before
    // it serves.  The argument is the pool's worker count: 0 times the
    // serial loadAllGrids(), 2 the pooled load a daemon with perfbench's
    // two workers makes.
    const std::string dir = "micro_store_warm_load";
    std::filesystem::remove_all(dir);
    {
        daemon::SnapshotStore store(dir);
        for (std::uint64_t i = 0; i < 12; ++i)
            storeFailed |= !store.storeGrid(
                storeKey(i), syntheticGrid(50 + i * 150 / 11, i));
    }
    daemon::SnapshotStore store(dir);
    const auto workers = static_cast<std::size_t>(state.range(0));
    exec::ThreadPool pool(workers);
    for (auto _ : state) {
        const auto grids = workers == 0
                               ? store.loadAllGrids()
                               : store.load(store.list(), &pool).grids;
        benchmark::DoNotOptimize(grids.data());
        if (grids.size() != 12) {
            storeFailed = true;
            state.SkipWithError("a stored grid failed to load");
            break;
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(directoryBytes(dir)));
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreWarmLoad)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

void
BM_StoreDaemonRestart(benchmark::State &state)
{
    // Daemon construction (two workers) over a store of 32-sample
    // fine() grids, as many as the argument times the grid cache's
    // capacity: the warm start reads only the newest files the cache
    // holds, so a store with a long history restarts as fast as one
    // at capacity.
    constexpr std::size_t kCapacity = 4;
    const std::size_t files =
        kCapacity * static_cast<std::size_t>(state.range(0));
    const std::string dir = "micro_store_restart";
    std::filesystem::remove_all(dir);
    {
        daemon::SnapshotStore store(dir);
        for (std::uint64_t i = 0; i < files; ++i)
            storeFailed |= !store.storeGrid(storeKey(i), syntheticGrid(32, i));
    }
    daemon::DaemonOptions options;
    options.service.jobs = 2;
    options.service.cacheCapacity = kCapacity;
    options.storeDir = dir;
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);  // each restart informs once
    for (auto _ : state) {
        auto restarted = std::make_unique<daemon::TuningDaemon>(
            SystemConfig::paperDefault(), options);
        state.PauseTiming();
        const daemon::SnapshotStore::Stats io = restarted->store()->stats();
        restarted.reset();
        state.ResumeTiming();
        if (io.gridLoads != kCapacity || io.loadErrors != 0) {
            storeFailed = true;
            state.SkipWithError("the warm start failed a load");
            break;
        }
    }
    setLogLevel(level);
    state.counters["files"] = static_cast<double>(files);
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreDaemonRestart)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void
BM_StoreGrid(benchmark::State &state)
{
    // One 32-sample fine() grid: the write each cold_build decision
    // makes, to a new file each time (the file is removed untimed, so
    // no write replaces an earlier one).
    const std::string dir = "micro_store_grid";
    std::filesystem::remove_all(dir);
    daemon::SnapshotStore store(dir);
    const MeasuredGrid grid = syntheticGrid(32, 7);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const bool stored = store.storeGrid(storeKey(7), grid);
        benchmark::DoNotOptimize(stored);
        state.PauseTiming();
        bytes = directoryBytes(dir);
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            std::filesystem::remove(entry.path());
        state.ResumeTiming();
        if (!stored) {
            storeFailed = true;
            state.SkipWithError("the grid write failed");
            break;
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes));
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreGrid)->Unit(benchmark::kMicrosecond);

/**
 * Console reporter that also captures every run so main() can emit the
 * machine-readable BENCH_grid.json after the benchmarks finish.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report)
            runs_.push_back(run);
        ConsoleReporter::ReportRuns(report);
    }

    const std::vector<Run> &runs() const { return runs_; }

  private:
    std::vector<Run> runs_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    // Emit the grid-build runs (the ones carrying a "cells" counter)
    // in the shared BENCH_grid.json schema.
    std::vector<mcdvfs::bench::GridBenchRecord> records;
    for (const auto &run : reporter.runs()) {
        const auto cells = run.counters.find("cells");
        if (cells == run.counters.end() || run.iterations == 0)
            continue;
        const double per_iter_seconds =
            run.real_accumulated_time /
            static_cast<double>(run.iterations);
        auto counter = [&](const char *name) {
            const auto it = run.counters.find(name);
            return it == run.counters.end() ? 0.0
                                            : static_cast<double>(
                                                  it->second.value);
        };
        mcdvfs::bench::GridBenchRecord record;
        record.name = run.benchmark_name();
        record.kernel = "table";
        record.settings = static_cast<std::size_t>(counter("settings"));
        record.samples = static_cast<std::size_t>(counter("samples"));
        record.jobs = static_cast<std::size_t>(counter("jobs"));
        record.buildSeconds = per_iter_seconds;
        record.cellsPerSec = cells->second.value / per_iter_seconds;
        records.push_back(record);
    }
    if (!records.empty()) {
        const char *out = std::getenv("MCDVFS_BENCH_OUT");
        const std::string out_path =
            out != nullptr ? out : "BENCH_grid.json";
        mcdvfs::bench::writeBenchGridJson(out_path,
                                          "micro_parallel_grid",
                                          records);
        // Metrics sidecar alongside the throughput numbers.
        mcdvfs::obs::writeMetricsJson(
            mcdvfs::bench::metricsSidecarPath(out_path));
    }

    benchmark::Shutdown();
    return storeFailed ? 1 : 0;
}

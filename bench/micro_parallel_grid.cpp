/**
 * @file
 * Micro-benchmarks of the concurrent characterization service: serial
 * vs parallel grid construction throughput (the dominant cost of every
 * figure), the latency of a cache-hit tuning request vs a cold one,
 * and the set-up cost of building the workload profile a request
 * carries.
 *
 * The parallel build fans the per-setting model evaluation over a
 * thread pool (bit-identical results; see sim/grid_runner.hh), so the
 * interesting numbers are the scaling of cells/second with workers and
 * how much of a request the grid cache removes.
 */

#include <benchmark/benchmark.h>

#include "bench_json.hh"
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
    return 0;
}

/**
 * @file
 * §VI-C micro-benchmarks: the cost of one tuning event's software
 * components, measured with google-benchmark.
 *
 * The paper reports ~500 us per tuning event over 70 settings
 * (inefficiency computation + optimal-settings search + hardware
 * transition) on its simulated platform.  These benchmarks measure
 * the analogous software costs in this implementation — the
 * optimal-settings search and cluster computation over the 70- and
 * 496-setting spaces — plus the per-sample characterization and
 * whole-grid construction costs that bound offline profiling, with
 * the characterization of a profile-cache miss also split by layer
 * (generation, cache hierarchy, DRAM, reset), each timed on the path a
 * miss takes: the grouped generator call, then the hierarchy with its
 * DRAM sink.
 *
 * The metrics snapshot is written next to MCDVFS_BENCH_OUT (default
 * BENCH_search.json) as a .metrics.json sidecar, so counter deltas
 * travel with the timing numbers.  A --benchmark_filter='70|Canonical|Layer'
 * run doubles as the tier-1 "perf_smoke" ctest without ever building
 * the fine grid (fixtures are lazy per space), and runs
 * BM_LayerGenerate's check that grouped generation reproduces next().
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/logging.hh"
#include "core/search_strategies.hh"
#include "obs/metrics.hh"
#include "repro/analyses.hh"
#include "sim/grid_runner.hh"
#include "sim/profile_cache.hh"
#include "sim/sample_simulator.hh"
#include "trace/trace_generator.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

/**
 * Lazily built shared fixtures: each grid is built on first use, so a
 * filtered run (e.g. the perf_smoke 70-setting subset) never pays for
 * the spaces it skips.
 */
struct Fixtures
{
    static const MeasuredGrid &
    coarse()
    {
        static const MeasuredGrid grid =
            buildGrid(SettingsSpace::coarse());
        return grid;
    }

    static const MeasuredGrid &
    fine()
    {
        static const MeasuredGrid grid =
            buildGrid(SettingsSpace::fine());
        return grid;
    }

  private:
    static MeasuredGrid
    buildGrid(const SettingsSpace &space)
    {
        GridRunner runner;
        return runner.run(workloadByName("gobmk"), space);
    }
};

void
BM_OptimalSearch70(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    std::size_t s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(finder.optimalForSample(s, 1.3));
        s = (s + 1) % grid.sampleCount();
    }
}
BENCHMARK(BM_OptimalSearch70);

void
BM_OptimalSearch496(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::fine();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    std::size_t s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(finder.optimalForSample(s, 1.3));
        s = (s + 1) % grid.sampleCount();
    }
}
BENCHMARK(BM_OptimalSearch496);

void
BM_ClusterSearch70(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    std::size_t s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            clusters.clusterForSample(s, 1.3, 0.03));
        s = (s + 1) % grid.sampleCount();
    }
}
BENCHMARK(BM_ClusterSearch70);

void
BM_StableRegions70(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    StableRegionFinder regions(clusters);
    for (auto _ : state)
        benchmark::DoNotOptimize(regions.find(1.3, 0.03));
}
BENCHMARK(BM_StableRegions70);

void
BM_TimingModelEval(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    TimingModel model;
    const SampleProfile &profile = grid.profile(0);
    const FrequencySetting setting{megaHertz(700), megaHertz(500)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(profile, setting, 10'000'000));
    }
}
BENCHMARK(BM_TimingModelEval);

void
BM_CharacterizeSample(benchmark::State &state)
{
    SampleSimulator simulator;
    const WorkloadProfile workload = workloadByName("gobmk");
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulator.characterizeOne(
            workload.phaseFor(0), workload.traceSeedFor(0), 50'000));
    }
}
BENCHMARK(BM_CharacterizeSample);

/**
 * One profile-cache miss per iteration — hierarchy reset, canonical
 * warm-up, measured sample — at the fleet_sim sampler (20k measured
 * after 40k warm-up instructions).  Each iteration takes the next
 * sample's phase of @c name under a fresh trace seed, so the cache
 * never hits.  Items are simulated instructions, warm-up included:
 * 1e9 / items_per_second is the cost per instruction in ns.
 */
void
BM_CharacterizeCanonical(benchmark::State &state, const char *name)
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.warmupInstructions = 100'000;
    config.profileWarmupInstructions = 40'000;
    SampleSimulator simulator(config);
    ProfileCache cache(64);
    simulator.setProfileCache(&cache);
    const WorkloadProfile workload = workloadByName(name);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const PhaseSpec &phase =
            workload.phaseFor(seed % workload.sampleCount());
        const WorkloadProfile sample(
            name, 1, [&phase](std::size_t) { return phase; }, ++seed,
            /*jitter=*/0.0);
        benchmark::DoNotOptimize(simulator.characterize(sample));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(config.profileWarmupInstructions +
                                  config.simInstructionsPerSample));
}
// The twelve workloads perfbench serves: what a miss costs, and which
// layer spends it, varies with each one's mix and footprint.
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, bzip2, "bzip2");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, gcc, "gcc");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, gobmk, "gobmk");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, lbm, "lbm");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, libquantum, "libq.");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, milc, "milc");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, mcf, "mcf");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, hmmer, "hmmer");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, sjeng, "sjeng");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, omnetpp, "omnetpp");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, namd, "namd");
BENCHMARK_CAPTURE(BM_CharacterizeCanonical, soplex, "soplex");

/**
 * What canonical characterizations of a workload's first eight samples
 * feed each layer (three 20k-instruction streams per sample, as in
 * BM_CharacterizeCanonical), recorded once so that the generator, the
 * cache hierarchy and the DRAM bank model can each be timed alone.
 */
struct LayerStreams
{
    static constexpr std::size_t kSamples = 8;
    static constexpr Count kStream = 20'000;

    std::vector<std::pair<PhaseSpec, std::uint64_t>> streams;
    std::vector<MemoryRef> refs[kSamples];  ///< memory references
    std::vector<MemoryRef> dram[kSamples];  ///< DRAM requests they cause

    static const LayerStreams &
    of(const char *name)
    {
        static std::map<std::string, LayerStreams> recorded;
        auto [it, fresh] = recorded.try_emplace(name);
        if (fresh)
            it->second.record(workloadByName(name));
        return it->second;
    }

  private:
    void
    record(const WorkloadProfile &workload)
    {
        CacheHierarchy hierarchy(HierarchyConfig::paperDefault());
        for (std::size_t s = 0; s < kSamples; ++s) {
            hierarchy.reset();
            for (std::uint64_t k = 0; k < 3; ++k) {
                streams.emplace_back(workload.phaseFor(s),
                                     workload.traceSeedFor(s) + k);
                TraceGenerator gen(streams.back().first,
                                   streams.back().second);
                for (Count i = 0; i < kStream; ++i) {
                    const InstrRecord rec = gen.next();
                    if (!isMemory(rec.kind))
                        continue;
                    const bool is_write = rec.kind == InstrKind::Store;
                    refs[s].push_back({rec.addr, is_write});
                    hierarchy.access(rec.addr, is_write,
                                     [this, s](const DramRequest &req) {
                                         dram[s].push_back(
                                             {req.addr, req.isWrite});
                                     });
                }
            }
        }
    }
};

/**
 * One grouped call over sample @c s's three streams, as pass 1 of a
 * miss decodes them, into @c out.
 */
void
decodeSample(const LayerStreams &streams, std::size_t s,
             std::vector<MemoryRef> (&out)[3])
{
    std::vector<TraceGenerator> gens;
    gens.reserve(3);
    for (std::size_t k = 3 * s; k < 3 * s + 3; ++k)
        gens.emplace_back(streams.streams[k].first, streams.streams[k].second);
    TraceGenerator::Lane lanes[3];
    for (std::size_t k = 0; k < 3; ++k)
        lanes[k] = {&gens[k], LayerStreams::kStream, &out[k]};
    TraceGenerator::nextMemoryRefs(lanes);
}

/**
 * Fatal unless the grouped calls a miss makes reproduce the memory
 * references next() recorded for every sample.
 */
void
checkGroupedCalls(const LayerStreams &streams)
{
    std::vector<MemoryRef> out[3];
    for (std::size_t s = 0; s < LayerStreams::kSamples; ++s) {
        decodeSample(streams, s, out);
        std::vector<MemoryRef> sample;
        for (const std::vector<MemoryRef> &stream : out)
            sample.insert(sample.end(), stream.begin(), stream.end());
        const std::vector<MemoryRef> &want = streams.refs[s];
        if (!std::equal(sample.begin(), sample.end(), want.begin(),
                        want.end(),
                        [](const MemoryRef &a, const MemoryRef &b) {
                            return a.addr == b.addr &&
                                   a.isWrite == b.isWrite;
                        })) {
            fatal("micro_search_overhead: grouped generation of sample ",
                  s, " of ", streams.streams[3 * s].first.name,
                  " diverges from next()");
        }
    }
}

/**
 * Instruction generation alone: per sample, one grouped call over its
 * three streams, as a miss makes it; items are instructions.
 */
void
BM_LayerGenerate(benchmark::State &state, const char *name)
{
    const LayerStreams &streams = LayerStreams::of(name);
    checkGroupedCalls(streams);
    std::vector<MemoryRef> out[3];
    for (auto _ : state) {
        for (std::size_t s = 0; s < LayerStreams::kSamples; ++s) {
            decodeSample(streams, s, out);
            benchmark::DoNotOptimize(out[0].data());
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * streams.streams.size() *
        LayerStreams::kStream));
}
BENCHMARK_CAPTURE(BM_LayerGenerate, gobmk, "gobmk");
BENCHMARK_CAPTURE(BM_LayerGenerate, milc, "milc");
BENCHMARK_CAPTURE(BM_LayerGenerate, mcf, "mcf");

/**
 * The L1/L2 hierarchy alone, handing each DRAM transaction to a sink,
 * from a reset per sample (untimed); items are memory references.
 */
void
BM_LayerHierarchy(benchmark::State &state, const char *name)
{
    const LayerStreams &streams = LayerStreams::of(name);
    CacheHierarchy hierarchy(HierarchyConfig::paperDefault());
    std::int64_t items = 0;
    for (auto _ : state) {
        for (const auto &refs : streams.refs) {
            state.PauseTiming();
            hierarchy.reset();
            state.ResumeTiming();
            Count requests = 0;
            for (const MemoryRef &ref : refs) {
                hierarchy.access(ref.addr, ref.isWrite,
                                 [&requests](const DramRequest &req) {
                                     requests += req.addr != 0;
                                 });
            }
            benchmark::DoNotOptimize(requests);
            items += static_cast<std::int64_t>(refs.size());
        }
    }
    state.SetItemsProcessed(items);
}
BENCHMARK_CAPTURE(BM_LayerHierarchy, gobmk, "gobmk");
BENCHMARK_CAPTURE(BM_LayerHierarchy, milc, "milc");
BENCHMARK_CAPTURE(BM_LayerHierarchy, mcf, "mcf");

/** The DRAM bank model alone; items are DRAM requests. */
void
BM_LayerDram(benchmark::State &state, const char *name)
{
    const LayerStreams &streams = LayerStreams::of(name);
    DramDevice dram(DramConfig{});
    std::int64_t items = 0;
    for (auto _ : state) {
        for (const auto &requests : streams.dram) {
            dram.reset();
            for (const MemoryRef &req : requests)
                benchmark::DoNotOptimize(dram.access(req.addr, req.isWrite));
            items += static_cast<std::int64_t>(requests.size());
        }
    }
    state.SetItemsProcessed(items);
}
BENCHMARK_CAPTURE(BM_LayerDram, gobmk, "gobmk");
BENCHMARK_CAPTURE(BM_LayerDram, milc, "milc");
BENCHMARK_CAPTURE(BM_LayerDram, mcf, "mcf");

/** The reset every profile-cache miss starts with. */
void
BM_LayerReset(benchmark::State &state)
{
    CacheHierarchy hierarchy(HierarchyConfig::paperDefault());
    DramDevice dram(DramConfig{});
    for (auto _ : state) {
        hierarchy.reset();
        dram.reset();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LayerReset);

void
BM_HillClimbCold70(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    InefficiencyAnalysis analysis(grid);
    SettingsSearch search(analysis);
    const std::size_t min_idx =
        grid.space().indexOf(grid.space().minSetting());
    std::size_t s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(search.hillClimb(s, 1.3, min_idx));
        s = (s + 1) % grid.sampleCount();
    }
}
BENCHMARK(BM_HillClimbCold70);

void
BM_HillClimbWarm70(benchmark::State &state)
{
    const MeasuredGrid &grid = Fixtures::coarse();
    InefficiencyAnalysis analysis(grid);
    SettingsSearch search(analysis);
    std::size_t s = 0;
    std::size_t start = grid.space().indexOf(grid.space().minSetting());
    for (auto _ : state) {
        const SearchOutcome outcome = search.hillClimb(s, 1.3, start);
        benchmark::DoNotOptimize(outcome);
        start = outcome.settingIndex;
        s = (s + 1) % grid.sampleCount();
    }
}
BENCHMARK(BM_HillClimbWarm70);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();

    // Metrics sidecar alongside the timing numbers (the .json itself
    // comes from google-benchmark's own --benchmark_out, if asked).
    const char *out = std::getenv("MCDVFS_BENCH_OUT");
    const std::string out_path = out != nullptr ? out : "BENCH_search.json";
    obs::writeMetricsJson(bench::metricsSidecarPath(out_path));

    benchmark::Shutdown();
    return 0;
}

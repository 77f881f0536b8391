/**
 * @file
 * Profile-memoization micro-benchmark: dedup characterization + grid
 * evaluation vs the per-sample paths (docs/PERF.md).
 *
 * A phase-keyed synthetic workload (PerPhase seeding, N samples over a
 * handful of distinct phases) is characterized three ways — the
 * historical warm-state pass, a cold memoized pass (every distinct
 * phase simulates canonically once, the rest hit sim::ProfileCache)
 * and a warm memoized pass (every sample hits) — and the repeated
 * profiles then drive GridRunner's unique-row grid evaluation against
 * the cell-at-a-time reference kernel.
 *
 * Correctness gates (the binary fatals otherwise):
 *  - the memoized grid is bit-identical to referenceGridWithProfiles
 *    over the same profiles, serial and fanned over a pool;
 *  - a warm-cache re-characterization reproduces the cold profiles
 *    byte for byte, and its grid matches the first build exactly.
 *
 * Results go to stdout and BENCH_profile.json (--out overrides; see
 * bench/bench_json.hh).  --tiny shrinks the workload so the binary
 * doubles as the tier-1 "perf_smoke" ctest.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>

#include "bench_json.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/profile_cache.hh"
#include "sim/reference_kernel.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

/**
 * Phase-keyed synthetic workload: @c samples samples cycling over
 * @c distinct phases, seeded per phase so repeated phases share their
 * characterization key.
 */
WorkloadProfile
dedupWorkload(std::size_t samples, std::size_t distinct)
{
    return WorkloadProfile(
        "profile-dedup", samples,
        [distinct](std::size_t s) {
            const std::size_t v = s % distinct;
            PhaseSpec spec;
            if (v % 2 == 0) {
                spec.name = "cpu" + std::to_string(v);
                spec.baseCpi = 0.7 + 0.05 * static_cast<double>(v);
                spec.hotFrac = 0.97;
                spec.warmFrac = 0.02;
            } else {
                spec.name = "mem" + std::to_string(v);
                spec.baseCpi = 1.0 + 0.04 * static_cast<double>(v);
                spec.hotFrac = 0.82;
                spec.warmFrac = 0.10;
                spec.coldSeqFrac = 0.25;
                spec.mlp = 1.2 + 0.1 * static_cast<double>(v % 3);
            }
            return spec;
        },
        7, /*jitter=*/0.0, WorkloadProfile::SeedMode::PerPhase);
}

/** Best-of-@c reps wall time of @c fn, in seconds. */
double
bestOf(int reps, const std::function<void()> &fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** Fatal unless @c a and @c b agree bit for bit on every cell. */
void
requireBitIdentical(const MeasuredGrid &a, const MeasuredGrid &b,
                    const char *what)
{
    if (a.sampleCount() != b.sampleCount() ||
        a.settingCount() != b.settingCount())
        fatal("profile dedup bench: ", what, ": grid shapes differ");
    for (std::size_t s = 0; s < a.sampleCount(); ++s) {
        for (std::size_t k = 0; k < a.settingCount(); ++k) {
            if (a.secondsAt(s, k) != b.secondsAt(s, k) ||
                a.cpuEnergyAt(s, k) != b.cpuEnergyAt(s, k) ||
                a.memEnergyAt(s, k) != b.memEnergyAt(s, k) ||
                a.busyFracAt(s, k) != b.busyFracAt(s, k) ||
                a.bwUtilAt(s, k) != b.bwUtilAt(s, k)) {
                fatal("profile dedup bench: ", what,
                      ": grids diverge at sample ", s, ", setting ", k);
            }
        }
    }
}

/** Fatal unless two characterizations are byte-identical. */
void
requireSameProfiles(const std::vector<SampleProfile> &a,
                    const std::vector<SampleProfile> &b, const char *what)
{
    if (a.size() != b.size())
        fatal("profile dedup bench: ", what, ": profile counts differ");
    for (std::size_t s = 0; s < a.size(); ++s) {
        for (const auto rate : kProfileRates) {
            if (a[s].*rate != b[s].*rate)
                fatal("profile dedup bench: ", what,
                      ": profiles diverge at sample ", s);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_profile_dedup");
    args.addFlag("tiny");
    args.addOption("jobs");
    args.addOption("reps");
    args.addOption("samples");
    args.addOption("out");
    bool tiny = false;
    std::size_t jobs = 0;
    std::size_t samples = 0;
    int reps = 0;
    std::string out_path;
    try {
        args.parse(argc, argv);
        tiny = args.flag("tiny");
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
        samples = static_cast<std::size_t>(args.getInt(
            "samples", tiny ? 16 : 96, 2, 1'000'000));
        reps = static_cast<int>(
            args.getInt("reps", tiny ? 2 : 5, 1, 1000));
        out_path = args.get("out", "BENCH_profile.json");
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }

    SystemConfig config = SystemConfig::paperDefault();
    if (tiny) {
        config.sampler.simInstructionsPerSample = 20'000;
        config.sampler.warmupInstructions = 100'000;
        config.sampler.profileWarmupInstructions = 40'000;
    }
    const std::size_t distinct = tiny ? 4 : 8;
    const WorkloadProfile workload = dedupWorkload(samples, distinct);
    const Count ips = workload.modeledInstructionsPerSample();
    const SettingsSpace space = SettingsSpace::coarse();

    // --- Characterization: warm-state baseline vs memoized. ---

    SampleSimulator baseline_sim(config.sampler);
    const double baseline_seconds = bestOf(
        reps, [&] { baseline_sim.characterize(workload); });

    // Cold: a fresh cache per repetition, so every distinct phase
    // canonically characterizes once and the repeats hit.
    std::vector<SampleProfile> profiles;
    const double cold_seconds = bestOf(reps, [&] {
        ProfileCache cache(256);
        SampleSimulator sim(config.sampler);
        sim.setProfileCache(&cache);
        profiles = sim.characterize(workload);
        const SampleSimulator::CharacterizeStats &stats =
            sim.lastCharacterizeStats();
        if (stats.cacheMisses != distinct)
            fatal("profile dedup bench: expected ", distinct,
                  " cold misses, saw ", stats.cacheMisses);
        if (stats.cacheHits != samples - distinct)
            fatal("profile dedup bench: expected ", samples - distinct,
                  " cold hits, saw ", stats.cacheHits);
    });

    // Warm: one persistent cache; after the first pass every sample
    // hits, and the result must reproduce the cold profiles exactly.
    ProfileCache warm_cache(256);
    SampleSimulator warm_sim(config.sampler);
    warm_sim.setProfileCache(&warm_cache);
    std::vector<SampleProfile> warm_profiles =
        warm_sim.characterize(workload);
    requireSameProfiles(profiles, warm_profiles, "cold vs warm pass");
    const double warm_seconds = bestOf(reps, [&] {
        warm_profiles = warm_sim.characterize(workload);
        if (warm_sim.lastCharacterizeStats().cacheMisses != 0)
            fatal("profile dedup bench: warm pass missed the cache");
    });
    requireSameProfiles(profiles, warm_profiles, "warm re-pass");

    std::printf("characterize %zu samples (%zu distinct phases):\n",
                samples, distinct);
    std::printf("  baseline %9.3f ms   memoized cold %9.3f ms "
                "(%.2fx)   warm %9.3f ms (%.2fx)\n",
                baseline_seconds * 1e3, cold_seconds * 1e3,
                baseline_seconds / cold_seconds, warm_seconds * 1e3,
                baseline_seconds / warm_seconds);

    // --- Grid evaluation: unique-row dedup vs the reference kernel. ---

    const double cells =
        static_cast<double>(profiles.size() * space.size());
    GridRunner runner(config);
    const MeasuredGrid dedup_grid =
        runner.runWithProfiles(workload.name(), profiles, space, ips);
    const MeasuredGrid reference_grid = referenceGridWithProfiles(
        config, workload.name(), profiles, space, ips);
    requireBitIdentical(dedup_grid, reference_grid, "dedup vs reference");
    requireBitIdentical(
        dedup_grid,
        runner.runWithProfiles(workload.name(), profiles, space, ips),
        "rebuild vs first build");

    const double ref_seconds = bestOf(reps, [&] {
        referenceGridWithProfiles(config, workload.name(), profiles,
                                  space, ips);
    });
    const double dedup_seconds = bestOf(reps, [&] {
        runner.runWithProfiles(workload.name(), profiles, space, ips);
    });
    std::printf("grid %zux%zu: reference %9.3f ms   dedup %9.3f ms   "
                "speedup %.2fx\n",
                profiles.size(), space.size(), ref_seconds * 1e3,
                dedup_seconds * 1e3, ref_seconds / dedup_seconds);

    double par_seconds = 0.0;
    if (jobs > 0) {
        exec::ThreadPool pool(jobs);
        GridRunner parallel(config);
        parallel.setThreadPool(&pool);
        requireBitIdentical(dedup_grid,
                            parallel.runWithProfiles(workload.name(),
                                                     profiles, space, ips),
                            "pooled dedup vs serial");
        par_seconds = bestOf(reps, [&] {
            parallel.runWithProfiles(workload.name(), profiles, space,
                                     ips);
        });
        std::printf("grid %zux%zu: dedup --jobs %zu %9.3f ms   "
                    "speedup %.2fx vs reference\n",
                    profiles.size(), space.size(), jobs,
                    par_seconds * 1e3, ref_seconds / par_seconds);
    }

    std::vector<bench::GridBenchRecord> records;
    records.push_back({"characterize baseline serial", "reference", 0,
                       samples, 0, baseline_seconds,
                       static_cast<double>(samples) / baseline_seconds,
                       0.0});
    records.push_back({"characterize memoized cold", "memoized", 0,
                       samples, 0, cold_seconds,
                       static_cast<double>(samples) / cold_seconds,
                       baseline_seconds / cold_seconds});
    records.push_back({"characterize memoized warm", "memoized", 0,
                       samples, 0, warm_seconds,
                       static_cast<double>(samples) / warm_seconds,
                       baseline_seconds / warm_seconds});
    records.push_back({"grid reference serial", "reference", space.size(),
                       samples, 0, ref_seconds, cells / ref_seconds,
                       0.0});
    records.push_back({"grid dedup serial", "dedup", space.size(),
                       samples, 0, dedup_seconds, cells / dedup_seconds,
                       ref_seconds / dedup_seconds});
    if (jobs > 0)
        records.push_back({"grid dedup jobs=" + std::to_string(jobs),
                           "dedup", space.size(), samples, jobs,
                           par_seconds, cells / par_seconds,
                           ref_seconds / par_seconds});

    bench::writeBenchGridJson(out_path, "micro_profile_dedup", records,
                              "mcdvfs-bench-profile-v1");
    const std::string metrics_path =
        bench::metricsSidecarPath(out_path);
    obs::writeMetricsJson(metrics_path);
    std::printf("wrote %s and %s\n", out_path.c_str(),
                metrics_path.c_str());
    return 0;
}

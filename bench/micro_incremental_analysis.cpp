/**
 * @file
 * Incremental-analysis micro-benchmark: append vs recompute
 * (docs/PERF.md).
 *
 * A streaming tuner sees the same workload grow a few samples per
 * batch.  This benchmark builds synthetic grids with H history samples
 * plus A appended samples, then times the two ways of producing the
 * (optimal, clusters, regions) chain over all H+A samples:
 *
 *  - recompute: IncrementalAnalyzer::build from sample zero (what the
 *    service did before checkpoints existed);
 *  - append: extend a checkpoint covering the first H samples over
 *    just the A new ones, through a tail-range ClusterFinder so even
 *    the per-sample table fill is O(A).
 *
 * The appended chain is verified bit-identical to the recompute before
 * anything is timed (the binary fatals otherwise).  Across growing H
 * at fixed A the append time should stay flat while recompute grows
 * linearly — the point of the incremental path.
 *
 * Results go to stdout and, machine-readable, to
 * BENCH_incremental.json (--out overrides; schema
 * mcdvfs-bench-incremental-v1, same record layout as BENCH_grid.json:
 * "samples" is H+A, append records report appended cells/sec and
 * speedup_vs_reference = recompute/append).  --tiny shrinks the
 * history lengths so the binary doubles as the tier-1 "perf_smoke"
 * ctest pinning append == recompute.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>

#include "bench_json.hh"
#include "common/args.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/incremental_analysis.hh"
#include "obs/metrics.hh"

using namespace mcdvfs;

namespace
{

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

/**
 * Deterministic synthetic grid, filled directly (no characterization):
 * per-cell values come from an Rng seeded by (name, sample, setting),
 * so a longer grid of the same name is a bit-identical extension of a
 * shorter one — exactly the streaming-growth shape.
 */
MeasuredGrid
makeGrid(const std::string &name, const SettingsSpace &space,
         std::size_t samples)
{
    MeasuredGrid grid(name, space, samples, 1'000'000);
    const std::uint64_t name_hash = fnv1aString(kFnvOffsetBasis, name);
    for (std::size_t s = 0; s < samples; ++s) {
        MeasuredGrid::RowView row = grid.fillRow(s);
        const std::uint64_t row_seed = fnv1aMixWord(name_hash, s);
        for (std::size_t k = 0; k < space.size(); ++k) {
            Rng rng(fnv1aMixWord(row_seed, k));
            row.seconds[k] = 0.5 + rng.uniform();
            row.cpuEnergy[k] = 1.0 + rng.uniform();
            row.memEnergy[k] = 0.2 + 0.5 * rng.uniform();
            row.busyFrac[k] = 0.5 + 0.5 * rng.uniform();
            row.bwUtil[k] = rng.uniform();
        }
        grid.updateSampleAggregates(s);
    }
    return grid;
}

bool
sameChoice(const OptimalChoice &a, const OptimalChoice &b)
{
    return a.settingIndex == b.settingIndex && a.setting == b.setting &&
           a.speedup == b.speedup && a.inefficiency == b.inefficiency;
}

/** Fatal unless two checkpoints carry identical analysis output. */
void
requireIdentical(const AnalysisCheckpoint &oracle,
                 const AnalysisCheckpoint &appended,
                 const SettingsSpace &space)
{
    if (oracle.samples != appended.samples)
        fatal("incremental bench: sample counts differ");
    if (oracle.masks != appended.masks)
        fatal("incremental bench: appended masks diverge from the "
              "recompute");
    for (std::size_t s = 0; s < oracle.samples; ++s) {
        if (!sameChoice(oracle.optimal[s], appended.optimal[s]))
            fatal("incremental bench: appended optimum diverges from "
                  "the recompute at sample ", s);
    }
    const std::vector<StableRegion> a = oracle.regions.regions(space);
    const std::vector<StableRegion> b = appended.regions.regions(space);
    if (a.size() != b.size())
        fatal("incremental bench: region counts differ");
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first || a[i].last != b[i].last ||
            a[i].availableSettings != b[i].availableSettings ||
            a[i].chosenSettingIndex != b[i].chosenSettingIndex ||
            !(a[i].chosenSetting == b[i].chosenSetting)) {
            fatal("incremental bench: appended region ", i,
                  " diverges from the recompute");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_incremental_analysis");
    args.addFlag("tiny");
    args.addOption("reps");
    args.addOption("out");
    bool tiny = false;
    int reps = 0;
    std::string out_path;
    try {
        args.parse(argc, argv);
        tiny = args.flag("tiny");
        reps = static_cast<int>(
            args.getInt("reps", tiny ? 2 : 5, 1, 1000));
        out_path = args.get("out", "BENCH_incremental.json");
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }

    const SettingsSpace space = SettingsSpace::coarse();
    const std::vector<std::size_t> histories =
        tiny ? std::vector<std::size_t>{32, 128}
             : std::vector<std::size_t>{256, 1024, 4096};
    const std::size_t append = tiny ? 8 : 64;
    const double budget = 1.3;
    const double threshold = 0.03;

    std::vector<bench::GridBenchRecord> records;
    for (const std::size_t history : histories) {
        const std::size_t total = history + append;
        const MeasuredGrid grid = makeGrid("incremental", space, total);
        InefficiencyAnalysis analysis(grid);
        OptimalSettingsFinder finder(analysis);
        ClusterFinder full(finder);

        // The recompute oracle and the checkpoint covering the first
        // `history` samples that every append rep extends.
        const AnalysisCheckpoint oracle =
            IncrementalAnalyzer::build(full, budget, threshold, total);
        const AnalysisCheckpoint base = IncrementalAnalyzer::build(
            full, budget, threshold, history);

        {
            AnalysisCheckpoint appended = base;
            ClusterFinder tail(finder, history);
            IncrementalAnalyzer::extend(appended, tail, total);
            requireIdentical(oracle, appended, space);
        }

        const double recompute_seconds = bestOf(reps, [&] {
            ClusterFinder clusters(finder);
            IncrementalAnalyzer::build(clusters, budget, threshold,
                                       total);
        });
        // Per rep: clone outside the timer (the service clones its
        // cached checkpoint the same way), time the tail-range table
        // fill plus the extend — the cost a streaming batch pays.
        double append_seconds =
            std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
            AnalysisCheckpoint cp = base;
            const auto start = std::chrono::steady_clock::now();
            ClusterFinder tail(finder, history);
            IncrementalAnalyzer::extend(cp, tail, total);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            append_seconds = std::min(append_seconds, elapsed.count());
        }
        const double speedup = recompute_seconds / append_seconds;

        const std::string label = "H=" + std::to_string(history) +
                                  " A=" + std::to_string(append);
        records.push_back({label + " recompute", "recompute",
                           space.size(), total, 0, recompute_seconds,
                           static_cast<double>(total * space.size()) /
                               recompute_seconds,
                           0.0});
        records.push_back({label + " append", "append", space.size(),
                           total, 0, append_seconds,
                           static_cast<double>(append * space.size()) /
                               append_seconds,
                           speedup});
        std::printf("%-16s recompute %9.3f ms   append %9.3f ms   "
                    "speedup %.2fx\n",
                    label.c_str(), recompute_seconds * 1e3,
                    append_seconds * 1e3, speedup);
    }

    bench::writeBenchGridJson(out_path, "micro_incremental_analysis",
                              records, "mcdvfs-bench-incremental-v1");
    const std::string metrics_path = bench::metricsSidecarPath(out_path);
    obs::writeMetricsJson(metrics_path);
    std::printf("wrote %s and %s\n", out_path.c_str(),
                metrics_path.c_str());
    return 0;
}

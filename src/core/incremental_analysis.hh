/**
 * @file
 * Incremental (streaming) §V/§VI analysis.
 *
 * A streaming tuner sees the same workload grow a few samples at a
 * time, and every batch used to recompute optimal settings, clusters
 * and stable regions over the full history.  All three outputs are
 * prefix-extendable: per-sample optima and cluster masks only depend
 * on their own sample, and the greedy region walk only needs the open
 * region's start and surviving-settings mask (StableRegionBuilder) to
 * continue.  An AnalysisCheckpoint captures exactly that state for one
 * (budget, threshold); IncrementalAnalyzer::extend() advances it over
 * the appended samples in O(new samples x settings), never touching
 * history.  A full analysis is an extend() from an empty checkpoint,
 * so the from-scratch and the resumed paths are one code path: the
 * same ClusterFinder fill kernel and the same StableRegionBuilder
 * feed, hence append == recompute bit for bit (pinned by golden tests
 * against core/reference_analysis).
 */

#ifndef MCDVFS_CORE_INCREMENTAL_ANALYSIS_HH
#define MCDVFS_CORE_INCREMENTAL_ANALYSIS_HH

#include <cstddef>
#include <vector>

#include "core/stable_regions.hh"

namespace mcdvfs
{

/**
 * Resumable state of one (budget, threshold) analysis over a sample
 * prefix.  Cached by svc::CheckpointCache keyed by the grid's chained
 * prefix digest (MeasuredGrid::prefixDigest), so a grown grid finds
 * the checkpoint of its unchanged prefix and only analyzes the tail.
 */
struct AnalysisCheckpoint
{
    double budget = 1.0;
    double threshold = 0.0;
    /** Samples covered (the prefix length). */
    std::size_t samples = 0;
    /** Per-sample §V optimum under the budget. */
    std::vector<OptimalChoice> optimal;
    /** Per-sample cluster membership masks (§VI-A). */
    std::vector<SettingMask> masks;
    /** Open-region state of the greedy §VI-B walk. */
    StableRegionBuilder regions;
};

/** Extends and materializes analysis checkpoints. */
class IncrementalAnalyzer
{
  public:
    /**
     * Advance @c checkpoint in place from its current prefix to
     * @c new_total samples of @c clusters ' grid.  @c clusters may be
     * a tail-range finder (ClusterFinder range constructor) as long as
     * its tables cover [checkpoint.samples, new_total) — this is what
     * keeps the division hoisting O(new samples) too.  The fill fans
     * over @c pool (nullptr = serial) as ClusterFinder::table() does,
     * then the new masks feed the region builder in sample order: the
     * bits never depend on the worker count.  No-op when new_total
     * equals the checkpoint's prefix.
     */
    static void extend(AnalysisCheckpoint &checkpoint,
                       const ClusterFinder &clusters,
                       std::size_t new_total,
                       exec::ThreadPool *pool = nullptr);

    /**
     * Fresh checkpoint covering the first @c samples samples — an
     * extend() from zero, so it is the recompute oracle of itself.
     */
    static AnalysisCheckpoint build(const ClusterFinder &clusters,
                                    double budget, double threshold,
                                    std::size_t samples);

    /** Vector-form cluster of one checkpointed sample. */
    static PerformanceCluster materializeCluster(
        const OptimalChoice &optimal, const SettingMask &mask);
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_INCREMENTAL_ANALYSIS_HH

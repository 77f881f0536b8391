/**
 * @file
 * Parallel multi-budget / multi-threshold analysis sweeps.
 *
 * The paper's cluster figures (Figs. 9-12) and the retune-schedule
 * study evaluate the same grid at a cross product of inefficiency
 * budgets and cluster thresholds.  Every (budget, threshold, sample)
 * cell is independent, so the sweep flattens the cross product and
 * fans the per-sample cluster kernel over the thread pool, then grows
 * each point's stable regions from its finished mask table.  Results
 * are bit-identical to the serial nested loops for any worker count.
 */

#ifndef MCDVFS_CORE_ANALYSIS_SWEEP_HH
#define MCDVFS_CORE_ANALYSIS_SWEEP_HH

#include <vector>

#include "core/stable_regions.hh"

namespace mcdvfs
{

/** One point of the sweep's cross product. */
struct SweepPoint
{
    double budget = 1.0;
    double threshold = 0.0;
};

/** Clusters and regions of one sweep point. */
struct SweepResult
{
    SweepPoint point;
    ClusterTable table;
    std::vector<StableRegion> regions;

    /** Mean cluster size in settings (Fig. 9 y-axis). */
    double avgClusterSize() const;
    /** Mean stable-region length in samples (Fig. 10 y-axis). */
    double avgRegionLength() const;
};

/** Evaluates many (budget, threshold) points over one grid. */
class AnalysisSweep
{
  public:
    /** @param clusters cluster source (must outlive the sweep) */
    explicit AnalysisSweep(const ClusterFinder &clusters);

    /**
     * Evaluate every point, fanning the flattened point x sample work
     * list over @c pool (nullptr = serial).  Output order follows
     * @c points.
     */
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points,
                                 exec::ThreadPool *pool = nullptr) const;

  private:
    const ClusterFinder &clusters_;
    StableRegionFinder regions_;
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_ANALYSIS_SWEEP_HH

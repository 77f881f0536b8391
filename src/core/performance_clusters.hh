/**
 * @file
 * Performance clusters (§VI-A).
 *
 * The performance cluster of a sample, for a given inefficiency budget
 * and cluster threshold, is the set of all settings that (a) are
 * within the inefficiency budget and (b) perform within the threshold
 * of the optimal setting's performance for that budget.  Clusters are
 * what let a tuner trade a bounded performance loss for dramatically
 * fewer frequency transitions.
 *
 * ClusterFinder hoists all divisions to construction: one streaming
 * pass over the grid's SoA energy/time columns fills per-cell speedup
 * and inefficiency tables (the exact divisions of
 * InefficiencyAnalysis::sampleSpeedup/sampleInefficiency, so results
 * stay bit-identical).  Every (budget, threshold) query is then pure
 * comparisons: one compare per setting derives feasibility (filling a
 * SettingMask), the §V argmin/tie-break picks the optimum from the
 * speedup row, and one compare per feasible setting fills the cluster
 * mask — no divisions, no intermediate index vectors.  The
 * pre-bitset scalar algorithm survives as core/reference_analysis.hh,
 * a test oracle: golden tests keep the two bit-identical.
 */

#ifndef MCDVFS_CORE_PERFORMANCE_CLUSTERS_HH
#define MCDVFS_CORE_PERFORMANCE_CLUSTERS_HH

#include <vector>

#include "core/optimal_settings.hh"
#include "core/setting_mask.hh"

namespace mcdvfs
{

namespace exec
{
class ThreadPool;
} // namespace exec

/** One sample's cluster: the optimum plus all near-optimal settings. */
struct PerformanceCluster
{
    OptimalChoice optimal;
    /** Setting indices in the cluster, ascending (contains the optimum). */
    std::vector<std::size_t> settings;

    bool contains(std::size_t setting_index) const;
};

/**
 * All samples' clusters at one (budget, threshold), in mask form: the
 * per-sample optimum plus the cluster membership bitset.  This is the
 * working representation of the analysis pipeline — stable-region
 * growth, sweeps and the characterization service consume the masks
 * directly; materialize() assembles the classic vector form.
 */
struct ClusterTable
{
    double budget = 1.0;
    double threshold = 0.0;
    /** Per-sample §V optimum under the budget. */
    std::vector<OptimalChoice> optimal;
    /** Per-sample cluster membership over the settings space. */
    std::vector<SettingMask> masks;

    std::size_t sampleCount() const { return masks.size(); }

    /** The classic vector-form cluster of one sample. */
    PerformanceCluster materialize(std::size_t sample) const;
};

/** Computes performance clusters over a measured grid. */
class ClusterFinder
{
  public:
    /**
     * @param finder optimal-settings search to cluster around (must
     *               outlive the ClusterFinder)
     */
    explicit ClusterFinder(const OptimalSettingsFinder &finder);

    /**
     * Tail-range construction for incremental analysis: hoist the
     * speedup/inefficiency tables only for samples in
     * [@c first_sample, sampleCount()).  Queries below @c first_sample
     * are out of range — an IncrementalAnalyzer extending a checkpoint
     * past its old length only ever touches the new tail, so the
     * per-cell division work is O(new samples), not O(history).
     */
    ClusterFinder(const OptimalSettingsFinder &finder,
                  std::size_t first_sample);

    /**
     * Cluster of one sample.
     *
     * @param budget inefficiency budget (>= 1)
     * @param threshold tolerated performance degradation relative to
     *        the optimum, e.g. 0.01 for 1%
     * @throws FatalError for negative thresholds or budgets below 1
     */
    PerformanceCluster clusterForSample(std::size_t sample, double budget,
                                        double threshold) const;

    /** Clusters for every sample in order. */
    std::vector<PerformanceCluster> clusters(double budget,
                                             double threshold) const;

    /**
     * Clusters for every sample, the per-sample kernel fanned over
     * @c pool (nullptr = serial).  Samples are independent, so the
     * result is bit-identical to the serial loop for any worker count.
     */
    std::vector<PerformanceCluster> clusters(double budget,
                                             double threshold,
                                             exec::ThreadPool *pool) const;

    /**
     * All samples' optima and cluster masks in one pass (optionally
     * fanned over @c pool; bit-identical either way).
     */
    ClusterTable table(double budget, double threshold,
                       exec::ThreadPool *pool = nullptr) const;

    /**
     * The per-sample kernel: fill one sample's optimum and cluster
     * mask.  @c mask is assigned a mask sized to the settings space.
     */
    void fillSample(std::size_t sample, double budget, double threshold,
                    OptimalChoice &optimal, SettingMask &mask) const;

    /**
     * The threshold-independent half of the kernel: one sample's
     * budget-feasible set and §V optimum.  Sweeps over several
     * thresholds share one fillBudget() per (sample, budget) and call
     * fillCluster() per threshold.
     */
    void fillBudget(std::size_t sample, double budget,
                    OptimalChoice &optimal, SettingMask &feasible) const;

    /**
     * The per-threshold half: the cluster mask from a sample's
     * precomputed optimum and feasible set (both from fillBudget()).
     */
    void fillCluster(std::size_t sample, double threshold,
                     const OptimalChoice &optimal,
                     const SettingMask &feasible, SettingMask &mask) const;

    const OptimalSettingsFinder &finder() const { return finder_; }

    /** First sample the hoisted tables cover (0 for full grids). */
    std::size_t tableFirst() const { return tableFirst_; }

  private:
    /** Hoisted-table row of one sample (tableFirst()-relative). */
    const double *
    speedupRow(std::size_t sample) const
    {
        MCDVFS_DEBUG_ASSERT(sample >= tableFirst_,
                            "sample below the hoisted table range");
        return speedups_.data() +
               (sample - tableFirst_) * settings_.size();
    }

    const double *
    inefficiencyRow(std::size_t sample) const
    {
        MCDVFS_DEBUG_ASSERT(sample >= tableFirst_,
                            "sample below the hoisted table range");
        return inefficiencies_.data() +
               (sample - tableFirst_) * settings_.size();
    }

    const OptimalSettingsFinder &finder_;
    /** The settings space materialized once (the §V tie-break scans it). */
    std::vector<FrequencySetting> settings_;
    /**
     * Per-cell speedup and inefficiency, sample-major from
     * tableFirst_, hoisted at construction so queries are
     * division-free.
     */
    std::vector<double> speedups_;
    std::vector<double> inefficiencies_;
    /** First sample covered by the hoisted tables. */
    std::size_t tableFirst_ = 0;
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_PERFORMANCE_CLUSTERS_HH

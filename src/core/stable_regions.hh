/**
 * @file
 * Stable regions (§VI-B).
 *
 * A stable region is a maximal run of consecutive samples that share
 * at least one common setting across all their performance clusters.
 * The finder implements the paper's greedy algorithm: walk sample by
 * sample intersecting the available-settings set with the next
 * sample's cluster; when the intersection would become empty, close
 * the region and start a new one.  The setting chosen for a region is
 * the common setting with the highest CPU frequency first, then the
 * highest memory frequency.
 *
 * The growth step operates on SettingMask bitsets: each intersection
 * is a handful of word-wise ANDs and the emptiness test a word-wise
 * OR, replacing the per-sample sorted-vector set_intersection of the
 * scalar test oracle (core/reference_analysis.hh).  Golden tests keep
 * the two bit-identical.
 */

#ifndef MCDVFS_CORE_STABLE_REGIONS_HH
#define MCDVFS_CORE_STABLE_REGIONS_HH

#include <vector>

#include "core/performance_clusters.hh"

namespace mcdvfs
{

/** One stable region of consecutive samples. */
struct StableRegion
{
    std::size_t first = 0;  ///< first sample (inclusive)
    std::size_t last = 0;   ///< last sample (inclusive)
    /** Settings common to every sample's cluster in the region. */
    std::vector<std::size_t> availableSettings;
    /** The preferred common setting the region runs at. */
    std::size_t chosenSettingIndex = 0;
    FrequencySetting chosenSetting{};

    /** Region length in samples. */
    std::size_t length() const { return last - first + 1; }
};

/**
 * Resumable greedy region growth: feed cluster masks sample by sample;
 * the builder keeps the closed regions plus the open region's start
 * and surviving-settings mask.  Feeding one more sample is O(1) mask
 * work, so a checkpointing analyzer extends regions in O(new samples)
 * — and StableRegionFinder::fromTable is a feed loop over this same
 * builder, which is what guarantees append == recompute bit for bit.
 */
class StableRegionBuilder
{
  public:
    /** Grow by one sample's cluster mask (§VI-B intersection step). */
    void feed(const SettingsSpace &space, const SettingMask &mask);

    /**
     * The regions of everything fed so far: the closed regions plus
     * the open region closed at the last fed sample.  Does not mutate
     * the builder — feeding may continue afterwards.  At least one
     * sample must have been fed.
     */
    std::vector<StableRegion> regions(const SettingsSpace &space) const;

    /** Samples fed so far. */
    std::size_t fedSamples() const { return fed_; }

  private:
    std::vector<StableRegion> closed_;
    /** Open region (valid once fed_ > 0). */
    StableRegion current_;
    /** Settings common to every cluster of the open region. */
    SettingMask available_;
    std::size_t fed_ = 0;
};

/** Greedy stable-region construction over per-sample clusters. */
class StableRegionFinder
{
  public:
    /** @param clusters cluster source (must outlive the finder) */
    explicit StableRegionFinder(const ClusterFinder &clusters);

    /**
     * All stable regions of the run for a budget and threshold.
     * Regions tile the run: region i+1 starts at region i's last+1.
     * The per-sample cluster computation optionally fans out over
     * @c pool; the result is bit-identical for any worker count.
     */
    std::vector<StableRegion> find(double budget, double threshold,
                                   exec::ThreadPool *pool = nullptr) const;

    /**
     * Grow regions from a precomputed cluster table by word-wise mask
     * intersection (lets callers reuse one cluster computation across
     * analyses).
     */
    std::vector<StableRegion> fromTable(const ClusterTable &table) const;

    /**
     * Build regions from vector-form clusters (compatibility API;
     * converts them to masks and runs fromTable()).
     */
    std::vector<StableRegion> fromClusters(
        const std::vector<PerformanceCluster> &clusters) const;

  private:
    const ClusterFinder &clusters_;
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_STABLE_REGIONS_HH

/**
 * @file
 * Scalar reference implementations of the §V/§VI analyses.
 *
 * These are the pre-bitset analysis algorithms, kept verbatim as the
 * golden baseline for the mask-based kernels in
 * core/performance_clusters.hh and core/stable_regions.hh — the same
 * kernel-vs-reference pattern sim/reference_kernel.hh uses for grid
 * evaluation.  The golden tests
 * (tests/core_analysis_kernel_golden_test.cc) assert exact equality of
 * every cluster, stable region and step-sensitivity table between the
 * two paths; any change to the bitset kernels must keep them in
 * lockstep or the tier-1 suite fails.
 *
 * Nothing in the library calls these: they are the oracle of the
 * golden tests and of bench/micro_analysis_kernel only.
 */

#ifndef MCDVFS_CORE_REFERENCE_ANALYSIS_HH
#define MCDVFS_CORE_REFERENCE_ANALYSIS_HH

#include <vector>

#include "core/stable_regions.hh"
#include "core/step_sensitivity.hh"

namespace mcdvfs
{

/**
 * Scalar §VI-A cluster of one sample: budget filter via
 * OptimalSettingsFinder::feasibleSettings, then one speedup compare
 * per feasible setting.
 */
PerformanceCluster referenceClusterForSample(
    const OptimalSettingsFinder &finder, std::size_t sample,
    double budget, double threshold);

/** Scalar clusters for every sample in order. */
std::vector<PerformanceCluster> referenceClusters(
    const OptimalSettingsFinder &finder, double budget, double threshold);

/**
 * Scalar §VI-B stable regions: greedy growth by sorted-vector
 * set_intersection of consecutive clusters.
 */
std::vector<StableRegion> referenceStableRegions(
    const SettingsSpace &space,
    const std::vector<PerformanceCluster> &clusters);

/**
 * Scalar §VI-D characterization of one settings space (the
 * step-sensitivity table row): per-sample clusters, regions grown by
 * set_intersection, transitions of the cluster policy, and the
 * optimal-tracking time.
 */
SpaceCharacterization referenceCharacterizeSpace(const MeasuredGrid &grid,
                                                 double budget,
                                                 double threshold);

} // namespace mcdvfs

#endif // MCDVFS_CORE_REFERENCE_ANALYSIS_HH

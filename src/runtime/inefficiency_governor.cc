#include "runtime/inefficiency_governor.hh"

#include "common/logging.hh"

namespace mcdvfs
{

InefficiencyGovernor::InefficiencyGovernor(const ClusterFinder &clusters,
                                           double budget, double threshold)
    : clusters_(clusters), budget_(budget), threshold_(threshold)
{
    if (!(budget >= 1.0))  // NaN fails too
        fatal("inefficiency governor: budget must be >= 1");
    if (!(threshold >= 0.0))  // NaN fails too
        fatal("inefficiency governor: threshold must be >= 0");
}

FrequencySetting
InefficiencyGovernor::decide(const SampleObservation *last)
{
    const MeasuredGrid &grid = clusters_.finder().analysis().grid();

    if (!last) {
        // Nothing observed yet: start at the highest setting, which
        // is always performance-optimal (though possibly inefficient).
        current_ = grid.space().maxSetting();
        haveCurrent_ = true;
        return current_;
    }

    // Last-value phase prediction: assume the next sample behaves
    // like the one that just finished and consult its cluster.
    const PerformanceCluster cluster = clusters_.clusterForSample(
        last->sampleIndex, budget_, threshold_);

    if (haveCurrent_) {
        const std::size_t current_idx = grid.space().indexOf(current_);
        if (cluster.contains(current_idx)) {
            // Current setting is still near-optimal: avoid the
            // transition entirely.
            ++kept_;
            return current_;
        }
    }
    ++retuned_;
    current_ = cluster.optimal.setting;
    haveCurrent_ = true;
    return current_;
}

} // namespace mcdvfs

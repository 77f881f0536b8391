#include "core/incremental_analysis.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/thread_pool.hh"

namespace mcdvfs
{

void
IncrementalAnalyzer::extend(AnalysisCheckpoint &checkpoint,
                            const ClusterFinder &clusters,
                            std::size_t new_total, exec::ThreadPool *pool)
{
    const MeasuredGrid &grid = clusters.finder().analysis().grid();
    const SettingsSpace &space = grid.space();
    MCDVFS_ASSERT(new_total <= grid.sampleCount(),
                  "extend target beyond the grid");
    MCDVFS_ASSERT(new_total >= checkpoint.samples,
                  "checkpoints only extend forward");
    MCDVFS_ASSERT(clusters.tableFirst() <= checkpoint.samples,
                  "cluster tables must cover the appended range");
    MCDVFS_ASSERT(checkpoint.regions.fedSamples() == checkpoint.samples,
                  "checkpoint region state out of sync");

    const std::size_t first = checkpoint.samples;
    checkpoint.optimal.resize(new_total);
    checkpoint.masks.resize(new_total);
    auto fill = [&](std::size_t s) {
        clusters.fillSample(s, checkpoint.budget, checkpoint.threshold,
                            checkpoint.optimal[s], checkpoint.masks[s]);
    };
    if (pool != nullptr) {
        // ClusterFinder::table()'s grain; each sample writes only its
        // own slots, so any worker count gives the serial bits.
        const std::size_t grain = std::max<std::size_t>(
            1, (new_total - first) / (4 * (pool->size() + 1)));
        pool->parallelFor(first, new_total, fill, grain);
    } else {
        for (std::size_t s = first; s < new_total; ++s)
            fill(s);
    }
    for (std::size_t s = first; s < new_total; ++s)
        checkpoint.regions.feed(space, checkpoint.masks[s]);
    checkpoint.samples = new_total;
}

AnalysisCheckpoint
IncrementalAnalyzer::build(const ClusterFinder &clusters, double budget,
                           double threshold, std::size_t samples)
{
    AnalysisCheckpoint checkpoint;
    checkpoint.budget = budget;
    checkpoint.threshold = threshold;
    extend(checkpoint, clusters, samples);
    return checkpoint;
}

PerformanceCluster
IncrementalAnalyzer::materializeCluster(const OptimalChoice &optimal,
                                        const SettingMask &mask)
{
    PerformanceCluster cluster;
    cluster.optimal = optimal;
    cluster.settings.reserve(mask.count());
    for (const std::size_t k : mask)
        cluster.settings.push_back(k);
    return cluster;
}

} // namespace mcdvfs

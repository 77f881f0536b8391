#include "core/stable_regions.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcdvfs
{

namespace
{

/**
 * Preferred setting among a mask's members: highest CPU frequency
 * first, then highest memory frequency (§VI-B choice rule).
 */
std::size_t
chooseFromMask(const SettingsSpace &space, const SettingMask &available)
{
    MCDVFS_ASSERT(available.any(), "region with no settings");
    std::size_t best = available.firstSet();
    for (const std::size_t k : available) {
        if (settingPreferred(space.at(k), space.at(best)))
            best = k;
    }
    return best;
}

/** Close a region: materialize its common set and pick its setting. */
void
closeRegion(const SettingsSpace &space, StableRegion &region,
            std::size_t last, const SettingMask &available)
{
    region.last = last;
    region.availableSettings.clear();
    region.availableSettings.reserve(available.count());
    for (const std::size_t k : available)
        region.availableSettings.push_back(k);
    region.chosenSettingIndex = chooseFromMask(space, available);
    region.chosenSetting = space.at(region.chosenSettingIndex);
}

} // namespace

void
StableRegionBuilder::feed(const SettingsSpace &space,
                          const SettingMask &mask)
{
    if (fed_ == 0) {
        current_ = StableRegion{};
        current_.first = 0;
        available_ = mask;
        fed_ = 1;
        return;
    }
    SettingMask next = available_;
    if (!next.andInplaceAny(mask)) {
        // Close the region at the previous sample.
        closeRegion(space, current_, fed_ - 1, available_);
        closed_.push_back(std::move(current_));
        current_ = StableRegion{};
        current_.first = fed_;
        available_ = mask;
    } else {
        available_ = next;
    }
    ++fed_;
}

std::vector<StableRegion>
StableRegionBuilder::regions(const SettingsSpace &space) const
{
    MCDVFS_ASSERT(fed_ > 0, "no clusters to regionize");
    std::vector<StableRegion> out;
    out.reserve(closed_.size() + 1);
    out = closed_;
    StableRegion last = current_;
    closeRegion(space, last, fed_ - 1, available_);
    out.push_back(std::move(last));
    return out;
}

StableRegionFinder::StableRegionFinder(const ClusterFinder &clusters)
    : clusters_(clusters)
{
}

std::vector<StableRegion>
StableRegionFinder::find(double budget, double threshold,
                         exec::ThreadPool *pool) const
{
    return fromTable(clusters_.table(budget, threshold, pool));
}

std::vector<StableRegion>
StableRegionFinder::fromTable(const ClusterTable &table) const
{
    MCDVFS_ASSERT(table.sampleCount() > 0, "no clusters to regionize");
    const SettingsSpace &space =
        clusters_.finder().analysis().grid().space();

    // One feed loop over the resumable builder — the exact code path
    // incremental checkpoints extend, so the two can never diverge.
    StableRegionBuilder builder;
    for (std::size_t s = 0; s < table.sampleCount(); ++s)
        builder.feed(space, table.masks[s]);
    return builder.regions(space);
}

std::vector<StableRegion>
StableRegionFinder::fromClusters(
    const std::vector<PerformanceCluster> &clusters) const
{
    MCDVFS_ASSERT(!clusters.empty(), "no clusters to regionize");
    const SettingsSpace &space =
        clusters_.finder().analysis().grid().space();

    ClusterTable table;
    table.optimal.reserve(clusters.size());
    table.masks.reserve(clusters.size());
    for (const PerformanceCluster &cluster : clusters) {
        SettingMask mask(space.size());
        for (const std::size_t k : cluster.settings)
            mask.set(k);
        table.optimal.push_back(cluster.optimal);
        table.masks.push_back(mask);
    }
    return fromTable(table);
}

} // namespace mcdvfs

#include "core/analysis_sweep.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/thread_pool.hh"

namespace mcdvfs
{

double
SweepResult::avgClusterSize() const
{
    MCDVFS_ASSERT(table.sampleCount() > 0, "empty sweep result");
    double total = 0.0;
    for (const SettingMask &mask : table.masks)
        total += static_cast<double>(mask.count());
    return total / static_cast<double>(table.sampleCount());
}

double
SweepResult::avgRegionLength() const
{
    MCDVFS_ASSERT(!regions.empty(), "empty sweep result");
    double total = 0.0;
    for (const StableRegion &region : regions)
        total += static_cast<double>(region.length());
    return total / static_cast<double>(regions.size());
}

AnalysisSweep::AnalysisSweep(const ClusterFinder &clusters)
    : clusters_(clusters), regions_(clusters)
{
}

std::vector<SweepResult>
AnalysisSweep::run(const std::vector<SweepPoint> &points,
                   exec::ThreadPool *pool) const
{
    const MeasuredGrid &grid = clusters_.finder().analysis().grid();
    const std::size_t samples = grid.sampleCount();
    if (points.empty())
        return {};

    std::vector<SweepResult> out(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        out[p].point = points[p];
        out[p].table.budget = points[p].budget;
        out[p].table.threshold = points[p].threshold;
        out[p].table.optimal.resize(samples);
        out[p].table.masks.resize(samples);
    }

    // The budget-feasible set and the §V optimum depend only on
    // (sample, budget), so points sharing a budget share one
    // fillBudget() per sample and differ only in the per-threshold
    // cluster filter.  Sweeps are typically a budget x threshold
    // cross product, so this cuts the expensive half of the kernel
    // from points to distinct-budgets.
    struct BudgetGroup
    {
        double budget;
        std::vector<std::size_t> points;
    };
    std::vector<BudgetGroup> groups;
    for (std::size_t p = 0; p < points.size(); ++p) {
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const BudgetGroup &g) {
                                   return g.budget == points[p].budget;
                               });
        if (it == groups.end()) {
            groups.push_back({points[p].budget, {p}});
        } else {
            it->points.push_back(p);
        }
    }

    // Every (group, sample) cell is independent: flatten the cross
    // product so the pool balances across both dimensions.
    auto fill = [&](std::size_t i) {
        const std::size_t g = i / samples;
        const std::size_t s = i % samples;
        // Per-thread scratch, reused across every cell this worker
        // claims: fillBudget/fillCluster fully overwrite both, so the
        // hot body constructs nothing per cell.
        static thread_local OptimalChoice choice;
        static thread_local SettingMask feasible;
        clusters_.fillBudget(s, groups[g].budget, choice, feasible);
        for (const std::size_t p : groups[g].points) {
            out[p].table.optimal[s] = choice;
            clusters_.fillCluster(s, points[p].threshold, choice,
                                  feasible, out[p].table.masks[s]);
        }
    };
    // Region growth is a serial scan per point, but points are
    // independent of each other.
    auto grow = [&](std::size_t p) {
        out[p].regions = regions_.fromTable(out[p].table);
    };

    if (pool != nullptr) {
        // Chunk the flattened fan-out so each claimed range amortizes
        // the shared counter (the fill body is comparison-only).
        // Chunking never changes which slot a cell writes, so the
        // sweep stays bit-identical to the serial loops.
        const std::size_t cells = groups.size() * samples;
        const std::size_t grain = std::max<std::size_t>(
            1, cells / (4 * (pool->size() + 1)));
        pool->parallelFor(std::size_t{0}, cells, fill, grain);
        pool->parallelFor(std::size_t{0}, points.size(), grow);
    } else {
        for (std::size_t i = 0; i < groups.size() * samples; ++i)
            fill(i);
        for (std::size_t p = 0; p < points.size(); ++p)
            grow(p);
    }
    return out;
}

} // namespace mcdvfs

/**
 * @file
 * Unit tests for the inefficiency-budget governor.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hh"

#include "runtime/inefficiency_governor.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

struct Chain
{
    InefficiencyAnalysis analysis;
    OptimalSettingsFinder finder;
    ClusterFinder clusters;

    explicit Chain(const MeasuredGrid &grid)
        : analysis(grid), finder(analysis), clusters(finder)
    {
    }
};

TEST(InefficiencyGovernor, Validation)
{
    Chain chain(test::phasedGrid());
    EXPECT_THROW(InefficiencyGovernor(chain.clusters, 0.5, 0.03),
                 FatalError);
    EXPECT_THROW(InefficiencyGovernor(chain.clusters, 1.3, -0.01),
                 FatalError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(InefficiencyGovernor(chain.clusters, nan, 0.03),
                 FatalError);
    EXPECT_THROW(InefficiencyGovernor(chain.clusters, 1.3, nan),
                 FatalError);
}

TEST(InefficiencyGovernor, StartsAtMaxSetting)
{
    const MeasuredGrid &grid = test::phasedGrid();
    Chain chain(grid);
    InefficiencyGovernor governor(chain.clusters, 1.3, 0.03);
    EXPECT_TRUE(governor.decide(nullptr) == grid.space().maxSetting());
}

TEST(InefficiencyGovernor, FollowsClusters)
{
    const MeasuredGrid &grid = test::phasedGrid();
    Chain chain(grid);
    InefficiencyGovernor governor(chain.clusters, 1.2, 0.03);
    governor.decide(nullptr);
    SampleObservation last;
    last.sampleIndex = 0;
    const FrequencySetting chosen = governor.decide(&last);
    // The decision must lie in sample 0's cluster (last-value
    // prediction).
    const PerformanceCluster cluster =
        chain.clusters.clusterForSample(0, 1.2, 0.03);
    EXPECT_TRUE(cluster.contains(grid.space().indexOf(chosen)));
}

TEST(InefficiencyGovernor, KeepsSettingWhenStillInCluster)
{
    const MeasuredGrid &grid = test::phasedGrid();
    Chain chain(grid);
    InefficiencyGovernor governor(chain.clusters, 1.3, 0.05);
    governor.decide(nullptr);

    // Feed a run of identical-phase samples: after the first re-tune
    // the governor should keep its setting (fixture samples 0-2 share
    // the cpu phase).
    SampleObservation obs0;
    obs0.sampleIndex = 0;
    const FrequencySetting first = governor.decide(&obs0);
    SampleObservation obs1;
    obs1.sampleIndex = 1;
    const FrequencySetting second = governor.decide(&obs1);
    EXPECT_TRUE(first == second);
    EXPECT_GE(governor.keptSetting(), 1u);
}

TEST(InefficiencyGovernor, CountsRetunes)
{
    const MeasuredGrid &grid = test::phasedGrid();
    Chain chain(grid);
    InefficiencyGovernor governor(chain.clusters, 1.0, 0.01);
    governor.decide(nullptr);
    for (std::size_t s = 0; s + 1 < grid.sampleCount(); ++s) {
        SampleObservation obs;
        obs.sampleIndex = s;
        governor.decide(&obs);
    }
    EXPECT_EQ(governor.keptSetting() + governor.retuned(),
              grid.sampleCount() - 1);
    EXPECT_GE(governor.retuned(), 1u);
}

TEST(InefficiencyGovernor, NameForReports)
{
    Chain chain(test::phasedGrid());
    InefficiencyGovernor governor(chain.clusters, 1.3, 0.03);
    EXPECT_EQ(governor.name(), "inefficiency");
}

} // namespace
} // namespace mcdvfs

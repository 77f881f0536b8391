/**
 * @file
 * Hand-computed verification of the §V/§VI algorithms.
 *
 * A tiny 3-sample x 6-setting grid (CPU {400,700,1000} x mem
 * {300,600} MHz) is filled with hand-picked times and energies, and
 * every analysis result is checked against values worked out by hand
 * — complementing the invariant/property tests with exact expected
 * outputs.
 *
 * Grid design (time in ms, energy in mJ), settings indexed
 * k = cpu_idx * 2 + mem_idx:
 *
 *   k : (cpu,mem)   s0: t,E      s1: t,E      s2: t,E
 *   0 : (400,300)   10, 10      12, 10      10, 10
 *   1 : (400,600)   10,  12     9,  12      10, 12
 *   2 : (700,300)   6,  11     8,  13      6,  11
 *   3 : (700,600)   6,  13     5.95, 15    6,  13
 *   4 : (1000,300)  4,  14     7,  18      4.6, 14
 *   5 : (1000,600)  4.02, 16   5,  20      4.59, 16.5
 *
 * Hand results used below:
 *  - Emin per sample: 10 everywhere (k0 for s0/s2, k0/k1 tie broken
 *    by value: s1 Emin = 10 at k0).
 *  - At budget 1.405 (E <= ~14; 1.405 keeps the hand value 14/10 feasible despite floating-point rounding of the stored energies):
 *      s0 feasible {0,1,2,3,4}, fastest k4 (4ms); k5 infeasible (16).
 *      s1 feasible {0,1,2}, fastest k2 (8ms).
 *      s2 feasible {0,1,2,4}, fastest k4 (4.6ms).
 *  - Noise window 0.5% at s0: k4 = 4ms; no other feasible setting
 *    within 0.5%, so optimum = k4.
 *  - Clusters at budget 1.4, threshold 50% (generous, for hand
 *    math): s0 speedup(k) = 12/t... see individual tests.
 */

#include <gtest/gtest.h>

#include "core/pareto.hh"
#include "core/search_strategies.hh"
#include "core/stable_regions.hh"

namespace mcdvfs
{
namespace
{

SettingsSpace
tinySpace()
{
    return SettingsSpace(
        FrequencyLadder(std::vector<Hertz>{megaHertz(400),
                                           megaHertz(700),
                                           megaHertz(1000)}),
        FrequencyLadder(std::vector<Hertz>{megaHertz(300),
                                           megaHertz(600)}));
}

MeasuredGrid
handGrid()
{
    MeasuredGrid grid("hand", tinySpace(), 3, 1'000'000);
    const double t[3][6] = {
        {10.0, 10.0, 6.0, 6.0, 4.0, 4.02},
        {12.0, 9.0, 8.0, 5.95, 7.0, 5.0},
        {10.0, 10.0, 6.0, 6.0, 4.6, 4.59},
    };
    const double e[3][6] = {
        {10.0, 12.0, 11.0, 13.0, 14.0, 16.0},
        {10.0, 12.0, 13.0, 15.0, 18.0, 20.0},
        {10.0, 12.0, 11.0, 13.0, 14.0, 16.5},
    };
    for (std::size_t s = 0; s < 3; ++s) {
        const MeasuredGrid::RowView row = grid.fillRow(s);
        for (std::size_t k = 0; k < 6; ++k) {
            row.seconds[k] = t[s][k] * 1e-3;
            row.cpuEnergy[k] = e[s][k] * 1e-3 * 0.8;
            row.memEnergy[k] = e[s][k] * 1e-3 * 0.2;
        }
        grid.updateSampleAggregates(s);
    }
    return grid;
}

TEST(HandGrid, EminAndSlowest)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    for (std::size_t s = 0; s < 3; ++s)
        EXPECT_NEAR(analysis.sampleEmin(s), 10e-3, 1e-12);
    // Slowest per sample: s0 10ms, s1 12ms, s2 10ms.
    EXPECT_NEAR(analysis.sampleSpeedup(0, 4), 10.0 / 4.0, 1e-12);
    EXPECT_NEAR(analysis.sampleSpeedup(1, 2), 12.0 / 8.0, 1e-12);
}

TEST(HandGrid, InefficiencyValues)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    EXPECT_NEAR(analysis.sampleInefficiency(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(analysis.sampleInefficiency(0, 5), 1.6, 1e-12);
    EXPECT_NEAR(analysis.sampleInefficiency(1, 3), 1.5, 1e-12);
}

TEST(HandGrid, OptimalAtBudget1405)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);

    // s0: feasible {0..4}; fastest k4 (4.0ms); k5 (4.02ms) infeasible.
    EXPECT_EQ(finder.optimalForSample(0, 1.405).settingIndex, 4u);
    // s1: feasible {0,1,2} (E<=14); fastest k2 at 8ms.
    EXPECT_EQ(finder.optimalForSample(1, 1.405).settingIndex, 2u);
    // s2: feasible {0,1,2,4}; fastest k4 at 4.6ms.
    EXPECT_EQ(finder.optimalForSample(2, 1.405).settingIndex, 4u);
}

TEST(HandGrid, NoiseTieBreakPrefersHighCpuThenMem)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    // With a 1% window at unbounded budget, s0's k4 (4.0) and k5
    // (4.02, 0.5% slower) tie; the tie-break picks the higher MEMORY
    // frequency at the same CPU: k5.
    OptimalSettingsFinder finder(analysis, /*noise=*/0.01);
    EXPECT_EQ(finder.optimalForSample(0, kUnboundedBudget).settingIndex,
              5u);
    // With a 0.1% window they no longer tie: k4 wins on speed.
    OptimalSettingsFinder tight(analysis, /*noise=*/0.001);
    EXPECT_EQ(tight.optimalForSample(0, kUnboundedBudget).settingIndex,
              4u);
}

TEST(HandGrid, ClusterMembersAtGenerousThreshold)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis, /*noise=*/0.001);
    ClusterFinder clusters(finder);

    // s0 at budget 1.405: optimum k4 (4ms, speedup 2.5).  Threshold 40%
    // admits feasible settings with speedup >= 1.5, i.e. time <=
    // 6.67ms: k2 (6), k3 (6), k4 (4).
    const PerformanceCluster cluster =
        clusters.clusterForSample(0, 1.405, 0.40);
    EXPECT_EQ(cluster.settings.size(), 3u);
    EXPECT_TRUE(cluster.contains(2));
    EXPECT_TRUE(cluster.contains(3));
    EXPECT_TRUE(cluster.contains(4));
    EXPECT_FALSE(cluster.contains(5));  // infeasible
    EXPECT_FALSE(cluster.contains(0));  // too slow
}

TEST(HandGrid, StableRegionsFromHandClusters)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis, 0.001);
    ClusterFinder clusters(finder);
    StableRegionFinder regions(clusters);

    // At budget 1.405 / threshold 40%:
    //  s0 cluster {2,3,4}; s1: optimum k2 (8ms, speedup 1.5),
    //  threshold 40% admits time <= 13.33ms & feasible {0,1,2};
    //  s2 cluster: optimum k4 (4.6ms), time <= 7.67ms: {2,3,4}.
    //  Intersection s0∩s1 = {2}; extending to s2 keeps {2}.
    const auto region_list = regions.find(1.405, 0.40);
    ASSERT_EQ(region_list.size(), 1u);
    EXPECT_EQ(region_list[0].first, 0u);
    EXPECT_EQ(region_list[0].last, 2u);
    ASSERT_EQ(region_list[0].availableSettings.size(), 1u);
    EXPECT_EQ(region_list[0].chosenSettingIndex, 2u);
}

TEST(HandGrid, RegionsBreakAtTightThreshold)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis, 0.001);
    ClusterFinder clusters(finder);
    StableRegionFinder regions(clusters);

    // At threshold 1% the clusters are near-singletons around k4/k2/
    // k4 and share nothing: three regions.
    const auto region_list = regions.find(1.405, 0.01);
    ASSERT_EQ(region_list.size(), 3u);
    EXPECT_EQ(region_list[0].chosenSettingIndex, 4u);
    EXPECT_EQ(region_list[1].chosenSettingIndex, 2u);
    EXPECT_EQ(region_list[2].chosenSettingIndex, 4u);
}

TEST(HandGrid, ParetoFrontierByHand)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    ParetoAnalysis pareto(analysis);
    // Whole-run totals: t = {32,29,20,17.95,15.6,13.61},
    //                   E = {30,36,35,41,46,52.5}.
    // k0 (32,30): k1 is slower-comparison... k1 (29,36) doesn't
    // dominate k0 (more E).  Nothing has both t<=32 and E<=30 except
    // itself -> k0 on frontier.  k1 (29,36): k2 (20,35) dominates
    // (faster AND cheaper) -> k1 off.  k2 on (E 35 only beaten by k0
    // which is slower).  k3 (17.95,41): k4? (15.6,46) no (E higher);
    // nothing faster with E<=41 -> on.  k4 (15.6,46): k5 (13.61,52.5)
    // no -> on.  k5 fastest -> on.
    const auto frontier = pareto.runFrontier();
    ASSERT_EQ(frontier.size(), 5u);
    EXPECT_EQ(frontier[0].settingIndex, 5u);  // sorted fastest first
    EXPECT_EQ(frontier[4].settingIndex, 0u);
    EXPECT_NEAR(pareto.dominatedFraction(), 1.0 / 6.0, 1e-12);
}

TEST(HandGrid, WarmClimbFindsHandOptima)
{
    const MeasuredGrid grid = handGrid();
    InefficiencyAnalysis analysis(grid);
    SettingsSearch search(analysis);
    const SearchTrajectory warm = search.runWarmClimb(1.405);
    EXPECT_EQ(warm.perSample[0].settingIndex, 4u);
    EXPECT_EQ(warm.perSample[1].settingIndex, 2u);
    EXPECT_EQ(warm.perSample[2].settingIndex, 4u);
    EXPECT_NEAR(warm.optimalityGapPct, 0.0, 1e-9);
}

} // namespace
} // namespace mcdvfs

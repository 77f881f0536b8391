/**
 * @file
 * Hand-computed verification, part 2: transitions, tuning overhead
 * and trade-off numbers on the same tiny grid as
 * core_handgrid_test.cc.
 */

#include <gtest/gtest.h>

#include "core/tradeoff.hh"
#include "core/transitions.hh"

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

struct Chain
{
    InefficiencyAnalysis analysis;
    OptimalSettingsFinder finder;
    ClusterFinder clusters;
    StableRegionFinder regions;
    TransitionAnalysis transitions;
    TuningCostModel cost;
    TradeoffEvaluator tradeoff;

    explicit Chain(const MeasuredGrid &grid)
        : analysis(grid), finder(analysis, 0.001), clusters(finder),
          regions(clusters), transitions(regions, clusters), cost(),
          tradeoff(regions, clusters, cost)
    {
    }
};

TEST(HandGrid2, OptimalTrackingTransitions)
{
    // Optimal trajectory at 1.405: k4, k2, k4 -> 2 transitions over
    // 3 M modeled instructions = 666.67 per billion.
    const MeasuredGrid grid = handGrid();
    Chain chain(grid);
    const TransitionReport report =
        chain.transitions.forOptimalTracking(1.405);
    EXPECT_EQ(report.transitions, 2u);
    EXPECT_NEAR(report.perBillionInstructions, 2e9 / 3e6, 1.0);
    // Run lengths 1,1,1.
    EXPECT_EQ(report.runLengths.count(), 3u);
    EXPECT_DOUBLE_EQ(report.runLengths.quantile(1.0), 1.0);
}

TEST(HandGrid2, ClusterPolicyEliminatesTransitions)
{
    // At threshold 40% one region covers the run at k2: 0 transitions.
    const MeasuredGrid grid = handGrid();
    Chain chain(grid);
    const TransitionReport report =
        chain.transitions.forClusterPolicy(1.405, 0.40);
    EXPECT_EQ(report.transitions, 0u);
}

TEST(HandGrid2, TradeoffNumbersByHand)
{
    // Optimal tracking at 1.405: times 4 + 8 + 4.6 = 16.6 ms,
    //                            energies 14 + 13 + 14 = 41 mJ.
    // Cluster policy at 40%: k2 throughout: 6 + 8 + 6 = 20 ms,
    //                        11 + 13 + 11 = 35 mJ.
    const MeasuredGrid grid = handGrid();
    Chain chain(grid);
    const PolicyOutcome optimal = chain.tradeoff.optimalTracking(1.405);
    EXPECT_NEAR(optimal.time, 16.6e-3, 1e-9);
    EXPECT_NEAR(optimal.energy, 41e-3, 1e-9);
    EXPECT_EQ(optimal.tuningEvents, 3u);
    EXPECT_EQ(optimal.transitions, 2u);
    // Achieved inefficiency = 41 / 30.
    EXPECT_NEAR(optimal.achievedInefficiency, 41.0 / 30.0, 1e-9);

    const PolicyOutcome cluster =
        chain.tradeoff.clusterPolicy(1.405, 0.40);
    EXPECT_NEAR(cluster.time, 20e-3, 1e-9);
    EXPECT_NEAR(cluster.energy, 35e-3, 1e-9);
    EXPECT_EQ(cluster.tuningEvents, 1u);
    EXPECT_EQ(cluster.transitions, 0u);

    const TradeoffRow row = chain.tradeoff.compare(1.405, 0.40);
    // perf = (16.6 - 20)/16.6 = -20.48%; energy = (35-41)/41 = -14.6%.
    EXPECT_NEAR(row.perfPct, (16.6 - 20.0) / 16.6 * 100.0, 1e-6);
    EXPECT_NEAR(row.energyPct, (35.0 - 41.0) / 41.0 * 100.0, 1e-6);
}

TEST(HandGrid2, TuningOverheadByHand)
{
    // Six settings: event cost = 500us * (0.6 * 6/70 + 0.4).
    const MeasuredGrid grid = handGrid();
    Chain chain(grid);
    const double scale = 0.6 * 6.0 / 70.0 + 0.4;
    const PolicyOutcome optimal = chain.tradeoff.optimalTracking(1.405);
    EXPECT_NEAR(optimal.timeWithOverhead,
                optimal.time + 3.0 * microSeconds(500) * scale, 1e-12);
    EXPECT_NEAR(optimal.energyWithOverhead,
                optimal.energy + 3.0 * microJoules(30) * scale, 1e-15);
}

TEST(HandGrid2, NormalizedExecutionTime)
{
    // At budget 1.0 the tracker must sit at per-sample Emin settings
    // (k0): times 10 + 12 + 10 = 32 ms.  Normalized time at 1.405 =
    // 16.6 / 32.
    const MeasuredGrid grid = handGrid();
    Chain chain(grid);
    EXPECT_NEAR(chain.tradeoff.normalizedExecutionTime(1.405),
                16.6 / 32.0, 1e-9);
}

} // namespace
} // namespace mcdvfs

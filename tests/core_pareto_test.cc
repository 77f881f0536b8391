/**
 * @file
 * Unit tests for the Pareto-frontier analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pareto.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

TEST(Pareto, FrontierNonEmptyAndSorted)
{
    InefficiencyAnalysis analysis(test::phasedGrid());
    ParetoAnalysis pareto(analysis);
    const auto frontier = pareto.runFrontier();
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i)
        EXPECT_GE(frontier[i].time, frontier[i - 1].time);
}

TEST(Pareto, FrontierPointsAreMutuallyNonDominated)
{
    InefficiencyAnalysis analysis(test::phasedGrid());
    ParetoAnalysis pareto(analysis);
    const auto frontier = pareto.runFrontier();
    for (const auto &a : frontier) {
        for (const auto &b : frontier) {
            if (a.settingIndex != b.settingIndex) {
                EXPECT_FALSE(pareto.dominates(a.settingIndex,
                                              b.settingIndex));
            }
        }
    }
}

TEST(Pareto, EveryNonFrontierPointIsDominated)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    ParetoAnalysis pareto(analysis);
    const auto frontier = pareto.runFrontier();
    auto on_frontier = [&frontier](std::size_t k) {
        return std::any_of(frontier.begin(), frontier.end(),
                           [k](const ParetoPoint &p) {
                               return p.settingIndex == k;
                           });
    };
    for (std::size_t k = 0; k < grid.settingCount(); ++k) {
        if (on_frontier(k))
            continue;
        bool dominated = false;
        for (std::size_t other = 0;
             other < grid.settingCount() && !dominated; ++other)
            dominated = other != k && pareto.dominates(other, k);
        EXPECT_TRUE(dominated) << "setting " << k;
    }
}

TEST(Pareto, FastestAndMostEfficientAreOnFrontier)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    ParetoAnalysis pareto(analysis);
    const auto frontier = pareto.runFrontier();

    // The fastest setting can't be dominated on time; Emin can't be
    // dominated on energy.
    double best_time = 1e18;
    double best_energy = 1e18;
    for (std::size_t k = 0; k < grid.settingCount(); ++k) {
        best_time = std::min(best_time, grid.totalTime(k));
        best_energy = std::min(best_energy, grid.totalEnergy(k));
    }
    EXPECT_NEAR(frontier.front().time, best_time, best_time * 1e-12);
    bool has_emin = false;
    for (const auto &point : frontier)
        has_emin |= point.energy <= best_energy * (1.0 + 1e-12);
    EXPECT_TRUE(has_emin);
}

TEST(Pareto, MostSettingsAreIncorrect)
{
    // The intro's warning quantified: the joint space is mostly
    // dominated settings.
    InefficiencyAnalysis analysis(test::phasedGrid());
    ParetoAnalysis pareto(analysis);
    EXPECT_GT(pareto.dominatedFraction(), 0.5);
    EXPECT_LT(pareto.dominatedFraction(), 1.0);
}

TEST(Pareto, SampleFrontiersExist)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    ParetoAnalysis pareto(analysis);
    for (std::size_t s = 0; s < grid.sampleCount(); s += 4) {
        const auto frontier = pareto.sampleFrontier(s);
        EXPECT_GE(frontier.size(), 2u);
        EXPECT_LT(frontier.size(), grid.settingCount());
    }
}

TEST(Pareto, FrontierInefficiencySpansFromOne)
{
    // Emin (I = 1) is always on the whole-run frontier.
    InefficiencyAnalysis analysis(test::phasedGrid());
    ParetoAnalysis pareto(analysis);
    double min_i = 1e18;
    for (const auto &point : pareto.runFrontier())
        min_i = std::min(min_i, point.inefficiency);
    EXPECT_NEAR(min_i, 1.0, 1e-9);
}

} // namespace
} // namespace mcdvfs

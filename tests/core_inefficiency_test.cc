/**
 * @file
 * Unit and property tests for the inefficiency metric (§II).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/inefficiency.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

TEST(Inefficiency, AlwaysAtLeastOne)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k < grid.settingCount(); ++k)
            ASSERT_GE(analysis.sampleInefficiency(s, k), 1.0 - 1e-12);
    }
    for (std::size_t k = 0; k < grid.settingCount(); ++k)
        ASSERT_GE(analysis.runInefficiency(k), 1.0 - 1e-12);
}

TEST(Inefficiency, ExactlyOneAtEminSetting)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        double best = 1e18;
        for (std::size_t k = 0; k < grid.settingCount(); ++k)
            best = std::min(best, analysis.sampleInefficiency(s, k));
        ASSERT_NEAR(best, 1.0, 1e-12);
    }
}

TEST(Inefficiency, SampleEminMatchesGrid)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s)
        ASSERT_DOUBLE_EQ(analysis.sampleEmin(s), grid.sampleEmin(s));
}

TEST(Inefficiency, SpeedupAtLeastOneAndOneAtSlowest)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        double slowest = 1e18;
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            const double speedup = analysis.sampleSpeedup(s, k);
            ASSERT_GE(speedup, 1.0 - 1e-12);
            slowest = std::min(slowest, speedup);
        }
        ASSERT_NEAR(slowest, 1.0, 1e-12);
    }
}

TEST(Inefficiency, RunAggregatesMatchGrid)
{
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    // Whole-run Emin and slowest time by brute force over the settings.
    Joules emin_total = std::numeric_limits<double>::infinity();
    Seconds slowest_total = 0.0;
    for (std::size_t k = 0; k < grid.settingCount(); ++k) {
        emin_total = std::min(emin_total, grid.totalEnergy(k));
        slowest_total = std::max(slowest_total, grid.totalTime(k));
    }
    EXPECT_DOUBLE_EQ(analysis.eminTotal(), emin_total);
    for (std::size_t k = 0; k < grid.settingCount(); k += 7) {
        EXPECT_DOUBLE_EQ(analysis.runInefficiency(k),
                         grid.totalEnergy(k) / emin_total);
        EXPECT_DOUBLE_EQ(analysis.runSpeedup(k),
                         slowest_total / grid.totalTime(k));
    }
}

TEST(Inefficiency, MaxRunInefficiencyInPaperRange)
{
    // The paper observes Imax between 1.5 and 2 across benchmarks;
    // the synthetic fixture should land in a compatible range.
    InefficiencyAnalysis analysis(test::phasedGrid());
    EXPECT_GT(analysis.maxRunInefficiency(), 1.3);
    EXPECT_LT(analysis.maxRunInefficiency(), 2.6);
}

TEST(Inefficiency, SlowestIsNotMostEfficient)
{
    // §IV: "Running slower doesn't mean that system is running
    // efficiently" — the lowest setting's inefficiency exceeds 1.
    const MeasuredGrid &grid = test::phasedGrid();
    InefficiencyAnalysis analysis(grid);
    const std::size_t lowest =
        grid.space().indexOf(grid.space().minSetting());
    EXPECT_GT(analysis.runInefficiency(lowest), 1.1);
}

TEST(Inefficiency, UnboundedBudgetConstant)
{
    EXPECT_TRUE(kUnboundedBudget > 1e300);
}

} // namespace
} // namespace mcdvfs

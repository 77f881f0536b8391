/**
 * @file
 * Unit tests for the MeasuredGrid container.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "sim/measured_grid.hh"

namespace mcdvfs
{
namespace
{

MeasuredGrid
handGrid()
{
    // 2 samples x 70 settings, filled with a recognizable pattern.
    MeasuredGrid grid("hand", SettingsSpace::coarse(), 2, 1'000'000);
    for (std::size_t s = 0; s < 2; ++s) {
        const MeasuredGrid::RowView row = grid.fillRow(s);
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            row.seconds[k] = 1.0 + static_cast<double>(k) * 0.01 +
                             static_cast<double>(s);
            row.cpuEnergy[k] = 2.0 - static_cast<double>(k) * 0.01;
            row.memEnergy[k] = 0.5;
        }
        grid.updateSampleAggregates(s);
    }
    return grid;
}

TEST(MeasuredGrid, Dimensions)
{
    const MeasuredGrid grid = handGrid();
    EXPECT_EQ(grid.sampleCount(), 2u);
    EXPECT_EQ(grid.settingCount(), 70u);
    EXPECT_EQ(grid.instructionsPerSample(), 1'000'000u);
    EXPECT_EQ(grid.totalInstructions(), 2'000'000u);
    EXPECT_EQ(grid.workload(), "hand");
}

TEST(MeasuredGrid, CellRoundTrip)
{
    // A value written through fillRow reads back through cell(), and
    // the row nobody wrote keeps the constructor's values.
    MeasuredGrid grid("x", SettingsSpace::coarse3(), 2, 1000);
    const MeasuredGrid::RowView row = grid.fillRow(1);
    row.seconds[3] = 7.0;
    row.cpuEnergy[3] = 8.0;
    row.memEnergy[3] = 9.0;
    row.busyFrac[3] = 0.25;
    row.bwUtil[3] = 0.75;
    row.gpuEnergy[3] = 0.5;
    const GridCell back = grid.cell(1, 3);
    EXPECT_DOUBLE_EQ(back.seconds, 7.0);
    EXPECT_DOUBLE_EQ(back.cpuEnergy, 8.0);
    EXPECT_DOUBLE_EQ(back.memEnergy, 9.0);
    EXPECT_DOUBLE_EQ(back.busyFrac, 0.25);
    EXPECT_DOUBLE_EQ(back.bwUtil, 0.75);
    EXPECT_DOUBLE_EQ(back.gpuEnergy, 0.5);
    const GridCell other = grid.cell(0, 3);
    EXPECT_DOUBLE_EQ(other.seconds, 0.0);
    EXPECT_DOUBLE_EQ(other.cpuEnergy, 0.0);
    EXPECT_DOUBLE_EQ(other.memEnergy, 0.0);
    EXPECT_DOUBLE_EQ(other.busyFrac, 1.0);
    EXPECT_DOUBLE_EQ(other.bwUtil, 0.0);
    EXPECT_DOUBLE_EQ(other.gpuEnergy, 0.0);
}

TEST(MeasuredGrid, EnergyIsCpuPlusMem)
{
    const MeasuredGrid grid = handGrid();
    const GridCell &cell = grid.cell(0, 0);
    EXPECT_DOUBLE_EQ(cell.energy(), cell.cpuEnergy + cell.memEnergy);
}

TEST(MeasuredGrid, SampleAggregates)
{
    const MeasuredGrid grid = handGrid();
    // Energy decreases with k, so Emin is at the last setting.
    EXPECT_DOUBLE_EQ(grid.sampleEmin(0),
                     grid.cell(0, 69).energy());
    // Time increases with k, so the slowest is the last setting.
    EXPECT_DOUBLE_EQ(grid.sampleSlowest(0),
                     grid.cell(0, 69).seconds);
}

TEST(MeasuredGrid, RunAggregates)
{
    const MeasuredGrid grid = handGrid();
    EXPECT_DOUBLE_EQ(grid.totalTime(5), grid.cell(0, 5).seconds +
                                            grid.cell(1, 5).seconds);
    EXPECT_DOUBLE_EQ(grid.totalEnergy(5),
                     grid.cell(0, 5).energy() +
                         grid.cell(1, 5).energy());
}

TEST(MeasuredGrid, ProfileAttachment)
{
    MeasuredGrid grid = handGrid();
    EXPECT_FALSE(grid.hasProfiles());
    std::vector<SampleProfile> profiles(2);
    profiles[1].l1Mpki = 33.0;
    grid.setProfiles(profiles);
    EXPECT_TRUE(grid.hasProfiles());
    EXPECT_DOUBLE_EQ(grid.profile(1).l1Mpki, 33.0);
}

TEST(MeasuredGrid, ProfileCountMismatchThrows)
{
    MeasuredGrid grid = handGrid();
    EXPECT_THROW(grid.setProfiles(std::vector<SampleProfile>(3)),
                 FatalError);
}

TEST(MeasuredGrid, ConstructorValidation)
{
    EXPECT_THROW(MeasuredGrid("x", SettingsSpace::coarse(), 0, 100),
                 FatalError);
    EXPECT_THROW(MeasuredGrid("x", SettingsSpace::coarse(), 2, 0),
                 FatalError);
}

TEST(MeasuredGrid, ColumnAccessorsMatchCells)
{
    const MeasuredGrid grid = handGrid();
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            const GridCell cell = grid.cell(s, k);
            EXPECT_DOUBLE_EQ(grid.secondsAt(s, k), cell.seconds);
            EXPECT_DOUBLE_EQ(grid.cpuEnergyAt(s, k), cell.cpuEnergy);
            EXPECT_DOUBLE_EQ(grid.memEnergyAt(s, k), cell.memEnergy);
            EXPECT_DOUBLE_EQ(grid.energyAt(s, k), cell.energy());
            EXPECT_DOUBLE_EQ(grid.busyFracAt(s, k), cell.busyFrac);
            EXPECT_DOUBLE_EQ(grid.bwUtilAt(s, k), cell.bwUtil);
        }
    }
}

TEST(MeasuredGridDeathTest, OutOfRangePanics)
{
    const MeasuredGrid grid = handGrid();
    EXPECT_DEATH(grid.cell(2, 0), "sample index");
    EXPECT_DEATH(grid.cell(0, 70), "setting index");
}

} // namespace
} // namespace mcdvfs

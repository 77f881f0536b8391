/**
 * @file
 * End-to-end tests for grid construction.
 */

#include <gtest/gtest.h>

#include "sim/grid_runner.hh"
#include "sim/reference_kernel.hh"

namespace mcdvfs
{
namespace
{

WorkloadProfile
tinyWorkload()
{
    PhaseSpec cpu;
    cpu.name = "cpu";
    cpu.hotFrac = 0.98;
    cpu.warmFrac = 0.015;
    PhaseSpec mem;
    mem.name = "mem";
    mem.hotFrac = 0.80;
    mem.warmFrac = 0.10;
    mem.coldSeqFrac = 0.3;
    return WorkloadProfile(
        "tiny", 6,
        [cpu, mem](std::size_t s) { return s % 2 ? mem : cpu; }, 5,
        /*jitter=*/0.0);
}

SystemConfig
fastConfig()
{
    SystemConfig config;
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    return config;
}

TEST(GridRunner, GridShapeAndPositivity)
{
    GridRunner runner(fastConfig());
    const MeasuredGrid grid =
        runner.run(tinyWorkload(), SettingsSpace::coarse());
    EXPECT_EQ(grid.sampleCount(), 6u);
    EXPECT_EQ(grid.settingCount(), 70u);
    EXPECT_TRUE(grid.hasProfiles());
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            const GridCell &cell = grid.cell(s, k);
            ASSERT_GT(cell.seconds, 0.0);
            ASSERT_GT(cell.cpuEnergy, 0.0);
            ASSERT_GT(cell.memEnergy, 0.0);
            ASSERT_GE(cell.busyFrac, 0.0);
            ASSERT_LE(cell.busyFrac, 1.0);
            ASSERT_GE(cell.bwUtil, 0.0);
            ASSERT_LE(cell.bwUtil, 1.0);
        }
    }
}

TEST(GridRunner, Deterministic)
{
    GridRunner a(fastConfig());
    GridRunner b(fastConfig());
    const MeasuredGrid ga = a.run(tinyWorkload(), SettingsSpace::coarse());
    const MeasuredGrid gb = b.run(tinyWorkload(), SettingsSpace::coarse());
    for (std::size_t s = 0; s < ga.sampleCount(); ++s) {
        for (std::size_t k = 0; k < ga.settingCount(); ++k) {
            ASSERT_DOUBLE_EQ(ga.cell(s, k).seconds,
                             gb.cell(s, k).seconds);
            ASSERT_DOUBLE_EQ(ga.cell(s, k).energy(),
                             gb.cell(s, k).energy());
        }
    }
}

TEST(GridRunner, TimeMonotoneInFrequencyPerSample)
{
    GridRunner runner(fastConfig());
    const MeasuredGrid grid =
        runner.run(tinyWorkload(), SettingsSpace::coarse());
    const std::size_t mem_steps = grid.space().memLadder().size();
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k + mem_steps < grid.settingCount();
             ++k) {
            // One CPU step up (same memory index): never slower.
            ASSERT_LE(grid.cell(s, k + mem_steps).seconds,
                      grid.cell(s, k).seconds * (1.0 + 1e-9));
        }
    }
}

TEST(GridRunner, MaxSettingIsFastest)
{
    GridRunner runner(fastConfig());
    const MeasuredGrid grid =
        runner.run(tinyWorkload(), SettingsSpace::coarse());
    const std::size_t max_idx =
        grid.space().indexOf(grid.space().maxSetting());
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        for (std::size_t k = 0; k < grid.settingCount(); ++k)
            ASSERT_LE(grid.secondsAt(s, max_idx), grid.secondsAt(s, k))
                << s << "," << k;
    }
}

TEST(GridRunner, RunWithProfilesMatchesRun)
{
    GridRunner runner(fastConfig());
    const WorkloadProfile workload = tinyWorkload();
    const MeasuredGrid direct =
        runner.run(workload, SettingsSpace::coarse());

    SampleSimulator simulator(fastConfig().sampler);
    const auto profiles = simulator.characterize(workload);
    const MeasuredGrid via_profiles = runner.runWithProfiles(
        workload.name(), profiles, SettingsSpace::coarse(),
        workload.modeledInstructionsPerSample());

    for (std::size_t s = 0; s < direct.sampleCount(); ++s) {
        for (std::size_t k = 0; k < direct.settingCount(); ++k) {
            ASSERT_DOUBLE_EQ(direct.cell(s, k).seconds,
                             via_profiles.cell(s, k).seconds);
            ASSERT_DOUBLE_EQ(direct.cell(s, k).energy(),
                             via_profiles.cell(s, k).energy());
        }
    }
}

void
expectGoldenIdentical(const MeasuredGrid &kernel,
                      const MeasuredGrid &reference)
{
    ASSERT_EQ(kernel.sampleCount(), reference.sampleCount());
    ASSERT_EQ(kernel.settingCount(), reference.settingCount());
    for (std::size_t s = 0; s < kernel.sampleCount(); ++s) {
        for (std::size_t k = 0; k < kernel.settingCount(); ++k) {
            // Exact equality on purpose: the table-driven kernel must
            // reproduce cell-at-a-time evaluation bit for bit.
            ASSERT_EQ(kernel.secondsAt(s, k), reference.secondsAt(s, k))
                << s << "," << k;
            ASSERT_EQ(kernel.cpuEnergyAt(s, k),
                      reference.cpuEnergyAt(s, k))
                << s << "," << k;
            ASSERT_EQ(kernel.memEnergyAt(s, k),
                      reference.memEnergyAt(s, k))
                << s << "," << k;
            ASSERT_EQ(kernel.busyFracAt(s, k),
                      reference.busyFracAt(s, k))
                << s << "," << k;
            ASSERT_EQ(kernel.bwUtilAt(s, k), reference.bwUtilAt(s, k))
                << s << "," << k;
        }
    }
    for (std::size_t s = 0; s < kernel.sampleCount(); ++s) {
        ASSERT_EQ(kernel.sampleEmin(s), reference.sampleEmin(s));
        ASSERT_EQ(kernel.sampleSlowest(s), reference.sampleSlowest(s));
    }
}

TEST(GridKernelGolden, MatchesReferenceWithNoise)
{
    // Paper-default configuration: deterministic measurement noise on.
    const SystemConfig config = fastConfig();
    GridRunner runner(config);
    const WorkloadProfile workload = tinyWorkload();
    expectGoldenIdentical(
        runner.run(workload, SettingsSpace::coarse()),
        referenceGrid(config, workload, SettingsSpace::coarse()));
}

TEST(GridKernelGolden, MatchesReferenceWithoutNoise)
{
    SystemConfig config = fastConfig();
    config.measurementNoise = 0.0;
    GridRunner runner(config);
    const WorkloadProfile workload = tinyWorkload();
    expectGoldenIdentical(
        runner.run(workload, SettingsSpace::coarse()),
        referenceGrid(config, workload, SettingsSpace::coarse()));
}

TEST(GridKernelGolden, MatchesReferenceWithoutBandwidthModel)
{
    // The pure-latency ablation takes a different branch in both
    // paths; it must stay bit-identical too.
    SystemConfig config = fastConfig();
    config.timing.modelBandwidth = false;
    GridRunner runner(config);
    const WorkloadProfile workload = tinyWorkload();
    expectGoldenIdentical(
        runner.run(workload, SettingsSpace::coarse()),
        referenceGrid(config, workload, SettingsSpace::coarse()));
}

TEST(GridKernelGolden, MatchesReferenceWithPowerDown)
{
    // Power-down mixes two background-power terms by bandwidth
    // utilization — the kernel's precomputed coefficients must
    // reproduce the mix exactly.
    SystemConfig config = fastConfig();
    config.dramPower.enablePowerDown = true;
    GridRunner runner(config);
    const WorkloadProfile workload = tinyWorkload();
    expectGoldenIdentical(
        runner.run(workload, SettingsSpace::coarse()),
        referenceGrid(config, workload, SettingsSpace::coarse()));
}

TEST(GridKernelGolden, MatchesReferenceOnFineSpace)
{
    const SystemConfig config = fastConfig();
    GridRunner runner(config);
    const WorkloadProfile workload = tinyWorkload();
    expectGoldenIdentical(
        runner.run(workload, SettingsSpace::fine()),
        referenceGrid(config, workload, SettingsSpace::fine()));
}

TEST(GridRunner, MemoryEnergyRisesWithMemFrequency)
{
    // At a fixed CPU frequency, higher memory frequency means more
    // background power over a (nearly) equal-or-shorter window; for a
    // CPU-bound sample the window is identical, so memory energy must
    // rise strictly.
    GridRunner runner(fastConfig());
    const MeasuredGrid grid =
        runner.run(tinyWorkload(), SettingsSpace::coarse());
    const SettingsSpace &space = grid.space();
    const std::size_t cpu_sample = 0;  // the workload's cpu phase
    const std::size_t lo = space.indexOf(
        FrequencySetting{megaHertz(1000), megaHertz(200)});
    const std::size_t hi = space.indexOf(
        FrequencySetting{megaHertz(1000), megaHertz(800)});
    EXPECT_LT(grid.cell(cpu_sample, lo).memEnergy,
              grid.cell(cpu_sample, hi).memEnergy);
}

} // namespace
} // namespace mcdvfs

/**
 * @file
 * Shared fixtures for the analysis-layer tests: a small but realistic
 * measured grid (alternating CPU/memory phases) built once per test
 * binary, a uniform-phase variant, a formula-built grid, and a grid's
 * binary form for byte-level comparisons.
 */

#ifndef MCDVFS_TESTS_TEST_GRID_HH
#define MCDVFS_TESTS_TEST_GRID_HH

#include <string>
#include <string_view>

#include "common/binio.hh"
#include "sim/grid_io.hh"
#include "sim/grid_runner.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace test
{

/** Alternating cpu/mem phases over 12 samples; fast to characterize. */
inline WorkloadProfile
phasedWorkload()
{
    PhaseSpec cpu;
    cpu.name = "cpu";
    cpu.baseCpi = 0.8;
    cpu.hotFrac = 0.975;
    cpu.warmFrac = 0.02;
    PhaseSpec mem;
    mem.name = "mem";
    mem.baseCpi = 1.1;
    mem.hotFrac = 0.86;
    mem.warmFrac = 0.11;
    mem.coldSeqFrac = 0.3;
    mem.mlp = 1.5;
    return WorkloadProfile(
        "phased", 12,
        [cpu, mem](std::size_t s) { return (s / 3) % 2 ? mem : cpu; },
        17, /*jitter=*/0.01);
}

/** One constant phase over 8 samples. */
inline WorkloadProfile
steadyWorkload()
{
    PhaseSpec spec;
    spec.name = "steady";
    spec.hotFrac = 0.94;
    spec.warmFrac = 0.05;
    return WorkloadProfile(
        "steady", 8, [spec](std::size_t) { return spec; }, 23,
        /*jitter=*/0.01);
}

inline SystemConfig
fastSystemConfig()
{
    SystemConfig config;
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    return config;
}

/** Grid of phasedWorkload() over the coarse space, built once. */
inline const MeasuredGrid &
phasedGrid()
{
    static const MeasuredGrid grid = [] {
        GridRunner runner(fastSystemConfig());
        return runner.run(phasedWorkload(), SettingsSpace::coarse());
    }();
    return grid;
}

/** Grid of steadyWorkload() over the coarse space, built once. */
inline const MeasuredGrid &
steadyGrid()
{
    static const MeasuredGrid grid = [] {
        GridRunner runner(fastSystemConfig());
        return runner.run(steadyWorkload(), SettingsSpace::coarse());
    }();
    return grid;
}

/**
 * A grid over @c space whose cells and profiles are set by formula, so
 * its bytes depend on the serializer alone (no simulation, no libm).
 */
inline MeasuredGrid
handGrid(const SettingsSpace &space, std::size_t samples)
{
    MeasuredGrid grid("hand", space, samples, 1000);
    std::vector<SampleProfile> profiles(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        const MeasuredGrid::RowView row = grid.fillRow(s);
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            row.seconds[k] = 0.001 * static_cast<double>(s + 1) + 1e-6 * k;
            row.cpuEnergy[k] = 0.5 + 0.25 * s + 1e-4 * k;
            row.memEnergy[k] = 0.125 + 1e-5 * k;
            row.busyFrac[k] = 1.0 / static_cast<double>(k + 1);
            row.bwUtil[k] = 0.0625 * s;
            row.gpuEnergy[k] = space.hasGpu() ? 0.03125 * k : 0.0;
        }
        grid.updateSampleAggregates(s);
        profiles[s].phaseName = s % 2 ? "mem" : "cpu";
        profiles[s].baseCpi = 1.0 + 0.5 * s;
        profiles[s].gpuActivity = 0.25;
    }
    grid.setProfiles(std::move(profiles));
    return grid;
}

/**
 * @c grid's binary form: its body format word, then its grid_io body
 * (a grid snapshot's payload), for byte-level comparisons.
 */
inline std::string
gridBytes(const MeasuredGrid &grid)
{
    ByteWriter w;
    w.u32(gridBodyFormat(grid));
    writeGridBody(w, grid);
    return w.take();
}

/** Parse gridBytes() output; the body must run to the end. */
inline MeasuredGrid
gridFromBytes(std::string_view bytes)
{
    ByteReader r(bytes, "grid bytes");
    const std::uint32_t format = r.u32();
    return readGridBody(r, format);
}

} // namespace test
} // namespace mcdvfs

#endif // MCDVFS_TESTS_TEST_GRID_HH

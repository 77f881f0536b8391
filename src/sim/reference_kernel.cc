#include "sim/reference_kernel.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace mcdvfs
{

namespace
{

/** Process-wide reference-path metrics (kernel-vs-reference split). */
struct ReferenceMetrics
{
    obs::Counter builds;
    obs::Counter cells;
    obs::Histogram buildNs;

    ReferenceMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        builds = reg.counter("sim.reference.builds");
        cells = reg.counter("sim.reference.cells_evaluated");
        buildNs = reg.histogram(
            "sim.reference.build_ns",
            obs::MetricsRegistry::latencyBucketsNs());
    }
};

ReferenceMetrics &
referenceMetrics()
{
    static ReferenceMetrics metrics;
    return metrics;
}

/** Deterministic per-cell seed mixing workload, sample and setting. */
std::uint64_t
cellSeed(const std::string &workload, std::size_t sample,
         std::size_t setting)
{
    std::uint64_t hash = fnv1aString(kFnvOffsetBasis, workload);
    hash = fnv1aMixWord(hash, sample);
    hash = fnv1aMixWord(hash, setting);
    return hash;
}

/** Evaluate one sample's row, one cell at a time. */
void
evaluateSampleReference(MeasuredGrid &grid, const SystemConfig &config,
                        const TimingModel &timing_model,
                        const CpuPowerModel &cpu_power,
                        const DramPowerModel &dram_power,
                        const GpuPowerModel &gpu_power,
                        const SampleProfile &profile, std::size_t sample,
                        const SettingsSpace &space,
                        Count instructions_per_sample)
{
    const double n = static_cast<double>(instructions_per_sample);
    const bool has_gpu = space.hasGpu();

    const DramStats dram_stats = profile.dramStats(instructions_per_sample);
    MeasuredGrid::RowView row = grid.fillRow(sample);

    for (std::size_t k = 0; k < space.size(); ++k) {
        const FrequencySetting setting = space.at(k);
        const SampleTiming timing = timing_model.evaluate(
            profile, setting, instructions_per_sample);

        if (!has_gpu) {
            row.seconds[k] = timing.total;
            row.busyFrac[k] =
                timing.total > 0.0 ? timing.busy / timing.total : 1.0;
            row.bwUtil[k] = timing.bwUtil;
            row.cpuEnergy[k] =
                cpu_power.energy(setting.cpu, profile.activity,
                                 timing.busy, timing.stall);
            row.memEnergy[k] =
                dram_power
                    .energy(dram_stats, setting.mem, timing.total,
                            timing.bwUtil)
                    .total();
        } else {
            // Third domain: the GPU's busy window depends only on its
            // own frequency; the sample ends when the slower side
            // finishes.  The core draws only static power over the
            // wait, the DRAM background window stretches with the
            // sample, and the GPU domain stays clocked throughout.
            const double gpu_time =
                n * profile.gpuWorkPerInstr / setting.gpu;
            const double t_final = std::max(timing.total, gpu_time);
            const CpuOperatingPoint op =
                cpu_power.operatingPoint(setting.cpu);
            row.seconds[k] = t_final;
            row.busyFrac[k] =
                t_final > 0.0 ? timing.busy / t_final : 1.0;
            row.bwUtil[k] = timing.bwUtil;
            row.cpuEnergy[k] =
                cpu_power.energy(setting.cpu, profile.activity,
                                 timing.busy, timing.stall) +
                (op.background + op.leakage) *
                    (t_final - timing.total);
            row.memEnergy[k] =
                dram_power
                    .energy(dram_stats, setting.mem, t_final,
                            timing.bwUtil)
                    .total();
            row.gpuEnergy[k] = gpu_power.energy(
                setting.gpu, profile.gpuActivity, gpu_time, t_final);
        }

        if (config.measurementNoise > 0.0) {
            // Deterministic "simulation noise" on the measured
            // quantities (see SystemConfig::measurementNoise).
            Rng noise(cellSeed(grid.workload(), sample, k));
            auto wobble = [&](double v) {
                return v * (1.0 + config.measurementNoise *
                                      (2.0 * noise.uniform() - 1.0));
            };
            row.seconds[k] = wobble(row.seconds[k]);
            row.cpuEnergy[k] = wobble(row.cpuEnergy[k]);
            row.memEnergy[k] = wobble(row.memEnergy[k]);
            if (has_gpu)
                row.gpuEnergy[k] = wobble(row.gpuEnergy[k]);
        }
    }

    grid.updateSampleAggregates(sample);
}

} // namespace

MeasuredGrid
referenceGridWithProfiles(const SystemConfig &config,
                          const std::string &workload_name,
                          const std::vector<SampleProfile> &profiles,
                          const SettingsSpace &space,
                          Count instructions_per_sample,
                          exec::ThreadPool *pool)
{
    const obs::Clock::time_point build_start = obs::metricsNow();
    const TimingModel timing_model(config.timing);
    const CpuPowerModel cpu_power(config.cpuPower, VoltageCurve::paperCpu());
    const DramPowerModel dram_power(config.dramPower,
                                    config.timing.dramTiming,
                                    config.timing.dramConfig);
    const GpuPowerModel gpu_power(config.gpuPower,
                                  GpuPowerModel::paperGpuCurve());

    MeasuredGrid grid(workload_name, space, profiles.size(),
                      instructions_per_sample);

    auto eval = [&](std::size_t s) {
        evaluateSampleReference(grid, config, timing_model, cpu_power,
                                dram_power, gpu_power, profiles[s], s,
                                space, instructions_per_sample);
    };
    if (pool != nullptr && pool->size() > 0 && profiles.size() > 1)
        pool->parallelFor(0, profiles.size(), eval);
    else
        for (std::size_t s = 0; s < profiles.size(); ++s)
            eval(s);

    grid.setProfiles(profiles);

    ReferenceMetrics &metrics = referenceMetrics();
    metrics.buildNs.record(obs::elapsedNs(build_start));
    metrics.builds.add(1);
    metrics.cells.add(profiles.size() * space.size());
    return grid;
}

MeasuredGrid
referenceGrid(const SystemConfig &config, const WorkloadProfile &workload,
              const SettingsSpace &space, exec::ThreadPool *pool)
{
    SampleSimulator simulator(config.sampler);
    const std::vector<SampleProfile> profiles =
        simulator.characterize(workload);
    return referenceGridWithProfiles(config, workload.name(), profiles,
                                     space,
                                     workload.modeledInstructionsPerSample(),
                                     pool);
}

} // namespace mcdvfs

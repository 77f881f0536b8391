/**
 * @file
 * Property test for the unique-profile grid evaluation: grids built by
 * GridRunner's dedup path (repeated profiles evaluated once per unique
 * row, per-sample noise applied at scatter time) must be bit-identical
 * to the cell-at-a-time reference kernel across noise amplitudes,
 * two- and three-domain spaces, and serial vs pooled builds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "sim/profile_cache.hh"
#include "sim/reference_kernel.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

/** Phase-keyed workload whose samples repeat a few distinct phases. */
WorkloadProfile
repeatingWorkload(std::size_t samples, std::size_t distinct, bool gpu)
{
    return WorkloadProfile(
        "dedup-prop", samples,
        [distinct, gpu](std::size_t s) {
            const std::size_t v = s % distinct;
            PhaseSpec spec;
            spec.name = std::string("p").append(std::to_string(v));
            spec.baseCpi = 0.8 + 0.05 * static_cast<double>(v);
            spec.hotFrac = 0.95 - 0.03 * static_cast<double>(v % 2);
            spec.warmFrac = 0.03;
            spec.coldSeqFrac = v % 2 ? 0.3 : 0.0;
            spec.mlp = 1.0 + 0.2 * static_cast<double>(v % 3);
            if (gpu) {
                spec.gpuKickFrac = 0.001 + 0.0005 * v;
                spec.gpuCyclesPerKick = 400.0;
                spec.gpuActivity = 0.5;
            }
            return spec;
        },
        11, /*jitter=*/0.0, WorkloadProfile::SeedMode::PerPhase);
}

/** Memoized characterization — the dedup path's natural input. */
std::vector<SampleProfile>
memoizedProfiles(const SystemConfig &config,
                 const WorkloadProfile &workload)
{
    ProfileCache cache(64);
    SampleSimulator simulator(config.sampler);
    simulator.setProfileCache(&cache);
    return simulator.characterize(workload);
}

void
requireBitIdentical(const MeasuredGrid &a, const MeasuredGrid &b,
                    const std::string &what)
{
    ASSERT_EQ(a.sampleCount(), b.sampleCount()) << what;
    ASSERT_EQ(a.settingCount(), b.settingCount()) << what;
    for (std::size_t s = 0; s < a.sampleCount(); ++s) {
        for (std::size_t k = 0; k < a.settingCount(); ++k) {
            ASSERT_EQ(a.secondsAt(s, k), b.secondsAt(s, k))
                << what << " sample " << s << " setting " << k;
            ASSERT_EQ(a.cpuEnergyAt(s, k), b.cpuEnergyAt(s, k))
                << what << " sample " << s << " setting " << k;
            ASSERT_EQ(a.memEnergyAt(s, k), b.memEnergyAt(s, k))
                << what << " sample " << s << " setting " << k;
            ASSERT_EQ(a.gpuEnergyAt(s, k), b.gpuEnergyAt(s, k))
                << what << " sample " << s << " setting " << k;
            ASSERT_EQ(a.busyFracAt(s, k), b.busyFracAt(s, k))
                << what << " sample " << s << " setting " << k;
            ASSERT_EQ(a.bwUtilAt(s, k), b.bwUtilAt(s, k))
                << what << " sample " << s << " setting " << k;
        }
    }
}

TEST(ProfileDedupProperty, MatchesReferenceAcrossNoiseSpacesAndPools)
{
    const double noise_amplitudes[] = {0.0, 0.002, 0.01};
    const struct
    {
        const char *name;
        bool gpu;
    } spaces[] = {{"coarse", false}, {"coarse3", true}};

    for (const double noise : noise_amplitudes) {
        for (const auto &shape : spaces) {
            SystemConfig config = SystemConfig::paperDefault();
            config.sampler.simInstructionsPerSample = 10'000;
            config.sampler.warmupInstructions = 20'000;
            config.sampler.profileWarmupInstructions = 20'000;
            config.measurementNoise = noise;
            const SettingsSpace space = shape.gpu
                                            ? SettingsSpace::coarse3()
                                            : SettingsSpace::coarse();
            const WorkloadProfile workload =
                repeatingWorkload(/*samples=*/12, /*distinct=*/3,
                                  shape.gpu);
            const std::vector<SampleProfile> profiles =
                memoizedProfiles(config, workload);
            const Count ips = workload.modeledInstructionsPerSample();
            const std::string what = std::string(shape.name) +
                                     " noise " + std::to_string(noise);

            const MeasuredGrid reference = referenceGridWithProfiles(
                config, workload.name(), profiles, space, ips);

            GridRunner runner(config);
            requireBitIdentical(
                runner.runWithProfiles(workload.name(), profiles, space,
                                       ips),
                reference, what + " serial");

            exec::ThreadPool pool(3);
            GridRunner pooled(config);
            pooled.setThreadPool(&pool);
            requireBitIdentical(
                pooled.runWithProfiles(workload.name(), profiles, space,
                                       ips),
                reference, what + " pooled");
        }
    }
}

TEST(ProfileDedupProperty, UniqueProfilesTakeTheSamePath)
{
    // All-distinct profiles (per-sample seeds) must also match the
    // reference — the dedup grouping degrades to the historical
    // per-sample loop when nothing repeats.
    SystemConfig config = SystemConfig::paperDefault();
    config.sampler.simInstructionsPerSample = 10'000;
    config.sampler.warmupInstructions = 20'000;
    const WorkloadProfile workload(
        "all-unique", 8,
        [](std::size_t s) {
            PhaseSpec spec;
            spec.name = std::string("u").append(std::to_string(s));
            spec.baseCpi = 0.7 + 0.02 * static_cast<double>(s);
            spec.hotFrac = 0.9;
            spec.warmFrac = 0.05;
            return spec;
        },
        5, /*jitter=*/0.0);

    SampleSimulator simulator(config.sampler);
    const std::vector<SampleProfile> profiles =
        simulator.characterize(workload);
    const Count ips = workload.modeledInstructionsPerSample();
    const SettingsSpace space = SettingsSpace::coarse();

    GridRunner runner(config);
    requireBitIdentical(
        runner.runWithProfiles(workload.name(), profiles, space, ips),
        referenceGridWithProfiles(config, workload.name(), profiles,
                                  space, ips),
        "all-unique serial");
}

TEST(ProfileDedupProperty, NoiseStaysPerSampleAfterDedup)
{
    // With noise on, two samples sharing one profile row must still
    // get *different* cells (noise is seeded per sample, applied at
    // scatter time) — dedup must not collapse the noise.
    SystemConfig config = SystemConfig::paperDefault();
    config.sampler.simInstructionsPerSample = 10'000;
    config.sampler.warmupInstructions = 20'000;
    config.sampler.profileWarmupInstructions = 20'000;
    config.measurementNoise = 0.002;
    const WorkloadProfile workload =
        repeatingWorkload(/*samples=*/6, /*distinct=*/1, /*gpu=*/false);
    const std::vector<SampleProfile> profiles =
        memoizedProfiles(config, workload);

    GridRunner runner(config);
    const MeasuredGrid grid = runner.runWithProfiles(
        workload.name(), profiles, SettingsSpace::coarse(),
        workload.modeledInstructionsPerSample());
    bool any_differ = false;
    for (std::size_t k = 0; k < grid.settingCount(); ++k) {
        if (grid.secondsAt(0, k) != grid.secondsAt(1, k))
            any_differ = true;
    }
    EXPECT_TRUE(any_differ)
        << "per-sample noise was lost in the dedup scatter";
}

TEST(ProfileDedupProperty, RebuildIsDeterministic)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.sampler.simInstructionsPerSample = 10'000;
    config.sampler.warmupInstructions = 20'000;
    config.sampler.profileWarmupInstructions = 20'000;
    const WorkloadProfile workload =
        repeatingWorkload(/*samples=*/9, /*distinct=*/3, /*gpu=*/false);
    const std::vector<SampleProfile> profiles =
        memoizedProfiles(config, workload);
    const Count ips = workload.modeledInstructionsPerSample();

    GridRunner runner(config);
    const MeasuredGrid first = runner.runWithProfiles(
        workload.name(), profiles, SettingsSpace::coarse(), ips);
    requireBitIdentical(runner.runWithProfiles(workload.name(), profiles,
                                               SettingsSpace::coarse(),
                                               ips),
                        first, "rebuild");
}

} // namespace
} // namespace mcdvfs

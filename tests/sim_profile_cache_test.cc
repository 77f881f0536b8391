/**
 * @file
 * ProfileCache unit tests: LRU/shard mechanics and stats, phase
 * fingerprints, PerPhase seed sharing, and the canonical-
 * characterization determinism that makes memoized profiles safe to
 * share across workloads and build orders.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/profile_cache.hh"
#include "sim/sample_simulator.hh"
#include "trace/phase.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

PhaseSpec
cpuPhase(double base_cpi = 0.8)
{
    PhaseSpec spec;
    spec.name = "cpu";
    spec.baseCpi = base_cpi;
    spec.hotFrac = 0.97;
    spec.warmFrac = 0.02;
    return spec;
}

PhaseSpec
memPhase()
{
    PhaseSpec spec;
    spec.name = "mem";
    spec.baseCpi = 1.1;
    spec.hotFrac = 0.82;
    spec.warmFrac = 0.10;
    spec.coldSeqFrac = 0.25;
    spec.mlp = 1.4;
    return spec;
}

std::shared_ptr<const SampleProfile>
profileStub(double base_cpi)
{
    auto profile = std::make_shared<SampleProfile>();
    profile->baseCpi = base_cpi;
    return profile;
}

void
expectSameProfile(const SampleProfile &a, const SampleProfile &b)
{
    EXPECT_EQ(a.baseCpi, b.baseCpi);
    EXPECT_EQ(a.activity, b.activity);
    EXPECT_EQ(a.mlp, b.mlp);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.l2PerInstr, b.l2PerInstr);
    EXPECT_EQ(a.dramReadsPerInstr, b.dramReadsPerInstr);
    EXPECT_EQ(a.dramWritesPerInstr, b.dramWritesPerInstr);
    EXPECT_EQ(a.dramPrefetchPerInstr, b.dramPrefetchPerInstr);
    EXPECT_EQ(a.rowHitFrac, b.rowHitFrac);
    EXPECT_EQ(a.rowClosedFrac, b.rowClosedFrac);
    EXPECT_EQ(a.rowConflictFrac, b.rowConflictFrac);
}

TEST(ProfileCache, LruEvictsOldestWithinCapacity)
{
    ProfileCache cache(2, /*shards=*/1);
    const ProfileKey k1{1, 0, 0, 0};
    const ProfileKey k2{2, 0, 0, 0};
    const ProfileKey k3{3, 0, 0, 0};
    cache.insert(k1, profileStub(1.0));
    cache.insert(k2, profileStub(2.0));
    cache.insert(k3, profileStub(3.0));  // evicts k1

    EXPECT_EQ(cache.find(k1), nullptr);
    ASSERT_NE(cache.find(k2), nullptr);
    ASSERT_NE(cache.find(k3), nullptr);

    const ProfileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ProfileCache, FindRefreshesLruPosition)
{
    ProfileCache cache(2, /*shards=*/1);
    const ProfileKey k1{1, 0, 0, 0};
    const ProfileKey k2{2, 0, 0, 0};
    const ProfileKey k3{3, 0, 0, 0};
    cache.insert(k1, profileStub(1.0));
    cache.insert(k2, profileStub(2.0));
    ASSERT_NE(cache.find(k1), nullptr);  // k2 is now the LRU entry
    cache.insert(k3, profileStub(3.0));

    EXPECT_NE(cache.find(k1), nullptr);
    EXPECT_EQ(cache.find(k2), nullptr);
    EXPECT_NE(cache.find(k3), nullptr);
}

TEST(ProfileCache, KeyDistinguishesEveryComponent)
{
    const ProfileKey base{10, 20, 30, 40};
    const ProfileKey by_phase{11, 20, 30, 40};
    const ProfileKey by_seed{10, 21, 30, 40};
    const ProfileKey by_instr{10, 20, 31, 40};
    const ProfileKey by_config{10, 20, 30, 41};
    EXPECT_NE(base.combined(), by_phase.combined());
    EXPECT_NE(base.combined(), by_seed.combined());
    EXPECT_NE(base.combined(), by_instr.combined());
    EXPECT_NE(base.combined(), by_config.combined());

    ProfileCache cache(8, /*shards=*/2);
    cache.insert(base, profileStub(1.0));
    EXPECT_EQ(cache.find(by_phase), nullptr);
    EXPECT_EQ(cache.find(by_seed), nullptr);
    EXPECT_NE(cache.find(base), nullptr);
}

TEST(ProfileCache, ClearDropsEntriesKeepsCounters)
{
    ProfileCache cache(4, /*shards=*/2);
    cache.insert(ProfileKey{1, 0, 0, 0}, profileStub(1.0));
    cache.insert(ProfileKey{2, 0, 0, 0}, profileStub(2.0));
    ASSERT_NE(cache.find(ProfileKey{1, 0, 0, 0}), nullptr);
    cache.clear();
    EXPECT_EQ(cache.find(ProfileKey{1, 0, 0, 0}), nullptr);
    const ProfileCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(PhaseFingerprint, SensitiveToEveryField)
{
    const PhaseSpec base = cpuPhase();
    EXPECT_EQ(base.fingerprint(), cpuPhase().fingerprint());

    PhaseSpec renamed = base;
    renamed.name = "cpu2";
    EXPECT_NE(base.fingerprint(), renamed.fingerprint());

    PhaseSpec retuned = base;
    retuned.baseCpi += 0.01;
    EXPECT_NE(base.fingerprint(), retuned.fingerprint());

    PhaseSpec regpu = base;
    regpu.gpuActivity += 0.05;
    EXPECT_NE(base.fingerprint(), regpu.fingerprint());

    EXPECT_NE(cpuPhase().fingerprint(), memPhase().fingerprint());
    EXPECT_NE(base.fingerprint(1), base.fingerprint(2));
}

TEST(SeedMode, PerPhaseSharesSeedsAcrossRepeatsAndWorkloads)
{
    const auto script = [](std::size_t s) {
        return s % 2 ? memPhase() : cpuPhase();
    };
    const WorkloadProfile a("a", 6, script, 1, /*jitter=*/0.0,
                            WorkloadProfile::SeedMode::PerPhase);
    const WorkloadProfile b("b", 6, script, 999, /*jitter=*/0.0,
                            WorkloadProfile::SeedMode::PerPhase);

    // Repeats of one phase share a seed within and across workloads,
    // regardless of the workload seed; distinct phases do not.
    EXPECT_EQ(a.traceSeedFor(0), a.traceSeedFor(2));
    EXPECT_EQ(a.traceSeedFor(1), a.traceSeedFor(3));
    EXPECT_NE(a.traceSeedFor(0), a.traceSeedFor(1));
    EXPECT_EQ(a.traceSeedFor(0), b.traceSeedFor(0));
    EXPECT_EQ(a.traceSeedFor(1), b.traceSeedFor(5));
}

TEST(SeedMode, PerSampleStaysTheHistoricalDefault)
{
    const auto script = [](std::size_t s) {
        return s % 2 ? memPhase() : cpuPhase();
    };
    const WorkloadProfile legacy("w", 4, script, 7, /*jitter=*/0.0);
    const WorkloadProfile explicit_mode(
        "w", 4, script, 7, /*jitter=*/0.0,
        WorkloadProfile::SeedMode::PerSample);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(legacy.traceSeedFor(s),
                  explicit_mode.traceSeedFor(s));
    // Per-sample seeds are all distinct even for repeated phases.
    EXPECT_NE(legacy.traceSeedFor(0), legacy.traceSeedFor(2));
}

TEST(SeedMode, JitterKeepsPerPhaseSamplesDistinct)
{
    const auto script = [](std::size_t) { return cpuPhase(); };
    const WorkloadProfile jittered("w", 4, script, 7, /*jitter=*/0.05,
                                   WorkloadProfile::SeedMode::PerPhase);
    // Jitter perturbs each sample's phase content, so the post-jitter
    // fingerprints (and with them the trace seeds) diverge.
    EXPECT_NE(jittered.traceSeedFor(0), jittered.traceSeedFor(1));
}

TEST(MemoizedCharacterization, HitsCountAndProfilesMatch)
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 10'000;
    config.warmupInstructions = 20'000;
    config.profileWarmupInstructions = 20'000;

    const auto script = [](std::size_t s) {
        return s % 2 ? memPhase() : cpuPhase();
    };
    const WorkloadProfile workload(
        "w", 8, script, 3, /*jitter=*/0.0,
        WorkloadProfile::SeedMode::PerPhase);

    ProfileCache cache(32);
    SampleSimulator sim(config);
    sim.setProfileCache(&cache);
    const std::vector<SampleProfile> first = sim.characterize(workload);
    EXPECT_EQ(sim.lastCharacterizeStats().cacheMisses, 2u);
    EXPECT_EQ(sim.lastCharacterizeStats().cacheHits, 6u);

    const std::vector<SampleProfile> second = sim.characterize(workload);
    EXPECT_EQ(sim.lastCharacterizeStats().cacheMisses, 0u);
    EXPECT_EQ(sim.lastCharacterizeStats().cacheHits, 8u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t s = 0; s < first.size(); ++s)
        expectSameProfile(first[s], second[s]);

    // Repeated phases memoize to byte-identical profiles.
    expectSameProfile(first[0], first[2]);
    expectSameProfile(first[1], first[3]);
}

TEST(MemoizedCharacterization, DeterministicAcrossBuildOrder)
{
    // Canonical characterization is a pure function of the key: two
    // services characterizing shared phases in opposite workload
    // orders must produce byte-identical profiles.
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 10'000;
    config.warmupInstructions = 20'000;
    config.profileWarmupInstructions = 20'000;

    const auto script_a = [](std::size_t s) {
        return s % 2 ? memPhase() : cpuPhase();
    };
    const auto script_b = [](std::size_t s) {
        return s % 2 ? cpuPhase() : memPhase();  // same phases, swapped
    };
    const WorkloadProfile a("a", 4, script_a, 1, 0.0,
                            WorkloadProfile::SeedMode::PerPhase);
    const WorkloadProfile b("b", 4, script_b, 2, 0.0,
                            WorkloadProfile::SeedMode::PerPhase);

    ProfileCache cache_ab(32);
    SampleSimulator sim_ab(config);
    sim_ab.setProfileCache(&cache_ab);
    const std::vector<SampleProfile> a_first = sim_ab.characterize(a);
    sim_ab.characterize(b);

    ProfileCache cache_ba(32);
    SampleSimulator sim_ba(config);
    sim_ba.setProfileCache(&cache_ba);
    sim_ba.characterize(b);
    const std::vector<SampleProfile> a_second = sim_ba.characterize(a);

    ASSERT_EQ(a_first.size(), a_second.size());
    for (std::size_t s = 0; s < a_first.size(); ++s)
        expectSameProfile(a_first[s], a_second[s]);
    // The second pass hit the cache for every sample (both phases were
    // already characterized through workload b).
    EXPECT_EQ(sim_ba.lastCharacterizeStats().cacheMisses, 0u);
}

TEST(MemoizedCharacterization, DetachedModeIsUntouched)
{
    // Without a cache the historical warm-state pass runs; two
    // simulators over the same workload agree with each other (the
    // golden grids depend on this staying byte-stable).
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 10'000;
    config.warmupInstructions = 20'000;

    const auto script = [](std::size_t s) {
        return s % 2 ? memPhase() : cpuPhase();
    };
    const WorkloadProfile workload("w", 4, script, 3, 0.0);

    SampleSimulator sim1(config);
    SampleSimulator sim2(config);
    const std::vector<SampleProfile> p1 = sim1.characterize(workload);
    const std::vector<SampleProfile> p2 = sim2.characterize(workload);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t s = 0; s < p1.size(); ++s)
        expectSameProfile(p1[s], p2[s]);
    EXPECT_EQ(sim1.lastCharacterizeStats().cacheHits, 0u);
    EXPECT_EQ(sim1.lastCharacterizeStats().cacheMisses, 0u);
}

TEST(ProfileFingerprint, ConfigChangesChangeTheKey)
{
    SampleSimulatorConfig a;
    SampleSimulatorConfig b = a;
    EXPECT_EQ(a.profileFingerprint(), b.profileFingerprint());

    b.profileWarmupInstructions *= 2;
    EXPECT_NE(a.profileFingerprint(), b.profileFingerprint());

    SampleSimulatorConfig c;
    c.hierarchy.nextLinePrefetch = !c.hierarchy.nextLinePrefetch;
    EXPECT_NE(a.profileFingerprint(), c.profileFingerprint());

    SampleSimulatorConfig d;
    d.simInstructionsPerSample += 1;
    // The instruction count travels in the key itself, not the config
    // fingerprint.
    EXPECT_EQ(a.profileFingerprint(), d.profileFingerprint());
}

} // namespace
} // namespace mcdvfs

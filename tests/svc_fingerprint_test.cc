/**
 * @file
 * Fingerprint regression tests.
 *
 * The cache keys on content hashes of (workload, space, config);
 * any collision serves the wrong grid.  The historical space
 * fingerprint hashed the flattened cross product, which collides for
 * domain splits sharing the same frequency sequence — in particular a
 * three-domain space and a two-domain space sharing a CPU x mem
 * prefix.  These tests pin the domain-list hashing that fixes it, and
 * that the GPU additions (phase channel, power params) are covered.
 * A golden pins keyFor() of every stock profile bit for bit, so
 * snapshot stores written by earlier builds keep warm-loading.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "svc/characterization_service.hh"
#include "svc/fingerprint.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

FrequencyLadder
ladder(std::initializer_list<double> mhz)
{
    std::vector<Hertz> steps;
    for (const double m : mhz)
        steps.push_back(megaHertz(m));
    return FrequencyLadder(std::move(steps));
}

/** A PerPhase profile: trace seeds come from the jittered phases. */
WorkloadProfile
perPhaseProfile()
{
    PhaseSpec cpu;
    cpu.name = "pp.cpu";
    cpu.baseCpi = 0.75;
    cpu.hotFrac = 0.97;
    cpu.warmFrac = 0.02;
    PhaseSpec mem;
    mem.name = "pp.mem";
    mem.baseCpi = 1.05;
    mem.hotFrac = 0.82;
    mem.warmFrac = 0.10;
    mem.coldSeqFrac = 0.25;
    mem.mlp = 1.3;
    return WorkloadProfile(
        "perphase", 24,
        [cpu, mem](std::size_t s) { return (s / 3) % 2 ? mem : cpu; },
        0x5eed, /*jitter=*/0.02, WorkloadProfile::SeedMode::PerPhase);
}

/** Pinned keyFor() results of one profile. */
struct GoldenKeys
{
    const char *name;
    std::uint64_t workload;
    /**
     * GridKey::combined() on coarse(), fine() and coarse3(), each
     * without then with the profile cache.
     */
    std::uint64_t combined[6];
};

// Snapshot stores name their files by these keys: a change here makes
// every stored snapshot miss on warm load.
constexpr GoldenKeys kGoldenKeys[] = {
    {"bzip2", 0xcf547f550d7ba294ull,
     {0xac58d3eda00968e0ull, 0x134210ac09ac5986ull, 0xaa2800a9ced3ba10ull,
      0xfccd850183703376ull, 0xa6bba8bf51534b1bull, 0xde422b1d009f9335ull}},
    {"gcc", 0xffae7929b6f02cf2ull,
     {0xd05136e8769981f2ull, 0x23187780a64cdbecull, 0x3ad42406407da5d6ull,
      0x5bb2876989b64f10ull, 0x13f78bd0fab7c1c5ull, 0x2a9b27b9f597c313ull}},
    {"gobmk", 0xadce38066c48189aull,
     {0x3bd5df43f411c3e2ull, 0x22522b59e98e911cull, 0x1dcfad8049576486ull,
      0x10b8a900f40a7400ull, 0x229fa26eb4328735ull, 0x4ce2f84dab54ecc3ull}},
    {"lbm", 0x0417ac58cbfefb97ull,
     {0x23d54699e99fcb95ull, 0xf8c9b25ada6a1223ull, 0x90ff1037d318b47dull,
      0x36d139e9cdeb0a5bull, 0x5bc50dc76b04c64aull, 0x8455a978cad3b894ull}},
    {"libq.", 0xc9f0c9c9ba923e68ull,
     {0xcf8e8a18e890c17cull, 0xc1814d3399f8d892ull, 0xc9189f67f0213864ull,
      0x6731527f9c50890aull, 0xf94abbbf1da4a677ull, 0xdaa5382c23a2a311ull}},
    {"milc", 0x5874f1fd270c5419ull,
     {0x57bb8088aea413f1ull, 0x04ed87dc9406326full, 0x262c4d8e972a7881ull,
      0xc86efa35050dfd3full, 0xfd6e1ad9d2cec5f6ull, 0xe99b1105fd826f30ull}},
    {"mcf", 0x2a8d9e575b32f5f0ull,
     {0x3d98bcc09d57315dull, 0x394846413d3bb2bbull, 0x8caee17617ad6bc5ull,
      0xa3527d5f128d6d13ull, 0x097e335b7740e9f2ull, 0x5c4573f3a6f443ecull}},
    {"hmmer", 0x6cde12a421d9a900ull,
     {0xd6c676c49dc5b5aeull, 0xb89019eff435f3d8ull, 0xed7c74a51299843aull,
      0x8ff32dbb14fcdf04ull, 0xc3f3f5f62d3b61c1ull, 0x77c7cb581454717full}},
    {"sjeng", 0x52fc55dea217c718ull,
     {0xeee75cabf1584578ull, 0xb978ba353253170eull, 0x51b573508c041048ull,
      0x875c1b8539b7b25eull, 0x0a7b8d9410c7a493ull, 0xb88212de489d187dull}},
    {"omnetpp", 0xb4e7d515734bdf90ull,
     {0xdb62526ab22f034dull, 0x7c51eba54b5d90abull, 0x794d01100e4208b5ull,
      0xffc6c3972a42b743ull, 0x946c22937a890b62ull, 0x55ec55c7501fbf9cull}},
    {"namd", 0x0c1fa8d49180b930ull,
     {0xfa1bda5f26d2336cull, 0x3f9e8b96fae42fc2ull, 0x73e1aa1cc8993f54ull,
      0x97914b662750ba7aull, 0xc681d7625afa2b27ull, 0xe90a26fef04c3d01ull}},
    {"soplex", 0x3264c96e5fc282bdull,
     {0xe730704ea1480ed0ull, 0x21beb61137cd7936ull, 0x9cea2018ce0cf780ull,
      0xcb6cea33d9816626ull, 0x3767cb45f2d13dcbull, 0x455913316db08d65ull}},
    {"glrender", 0xf61841f628db9e92ull,
     {0xcbf40fdf2c63cfbbull, 0xc68169a4afd7e455ull, 0xb2eb80d5e13c34bfull,
      0x37821105945e6aa9ull, 0xaa2fdc9663d15160ull, 0x62e19812d0ed9906ull}},
    {"perphase", 0x3d7d4e2f402b93ccull,
     {0x26903f5b4838c41aull, 0x1983dc7fc178b464ull, 0x4aea5fc6175d095eull,
      0x62c78efb40b1c488ull, 0xb429616eee6aacedull, 0x96458ec917589bcbull}},
};

TEST(Fingerprint, GridKeysMatchTheGolden)
{
    std::vector<WorkloadProfile> profiles = extendedWorkloads();
    profiles.push_back(perPhaseProfile());
    ASSERT_EQ(profiles.size(), std::size(kGoldenKeys));

    const SettingsSpace spaces[] = {SettingsSpace::coarse(),
                                    SettingsSpace::fine(),
                                    SettingsSpace::coarse3()};
    const std::uint64_t space_keys[] = {
        0xb1f9983fc9b84ad4ull, 0x9f4a29d8df46e41full, 0xec4a8b92eaa9aad7ull};
    svc::ServiceOptions memoized;
    memoized.profileCacheCapacity = 16;
    const svc::CharacterizationService plain(SystemConfig::paperDefault());
    const svc::CharacterizationService memo(SystemConfig::paperDefault(),
                                            memoized);
    const svc::CharacterizationService *services[] = {&plain, &memo};
    const std::uint64_t config_keys[] = {0xd005383574a93437ull,
                                         0xc87f8f406281a1b6ull};

    for (std::size_t p = 0; p < profiles.size(); ++p) {
        const GoldenKeys &golden = kGoldenKeys[p];
        SCOPED_TRACE(golden.name);
        EXPECT_EQ(profiles[p].name(), golden.name);
        for (std::size_t s = 0; s < std::size(spaces); ++s) {
            for (std::size_t c = 0; c < std::size(services); ++c) {
                const svc::GridKey key =
                    services[c]->keyFor(profiles[p], spaces[s]);
                EXPECT_EQ(key.workload, golden.workload);
                EXPECT_EQ(key.space, space_keys[s]);
                EXPECT_EQ(key.config, config_keys[c]);
                EXPECT_EQ(key.combined(), golden.combined[2 * s + c]);
            }
        }
    }
}

TEST(Fingerprint, ThreeDomainSpaceNeverCollidesWithItsPrefix)
{
    // The regression: a CPU x mem space and a CPU x mem x GPU space
    // sharing the CPU and memory ladders must key differently — even
    // with a one-step GPU ladder, whose cross product repeats the
    // two-domain settings with one extra coordinate.
    const SettingsSpace two(FrequencyLadder::cpuCoarse(),
                            FrequencyLadder::memCoarse());
    const SettingsSpace three(FrequencyLadder::cpuCoarse(),
                              FrequencyLadder::memCoarse(),
                              ladder({300}));
    EXPECT_NE(two.fingerprint(), three.fingerprint());

    // Equal spaces built independently still key identically.
    const SettingsSpace three_again(FrequencyLadder::cpuCoarse(),
                                    FrequencyLadder::memCoarse(),
                                    ladder({300}));
    EXPECT_EQ(three.fingerprint(),
              three_again.fingerprint());
}

TEST(Fingerprint, SpaceHashCoversTheDomainSplit)
{
    // Same flattened frequency sequence, different ladder boundary: a
    // flattened-cross-product hash cannot tell these apart.
    const SettingsSpace a(ladder({100, 200}), ladder({300}));
    const SettingsSpace b(ladder({100}), ladder({200, 300}));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SpaceHashCoversTheGpuLadder)
{
    const SettingsSpace a(FrequencyLadder::cpuCoarse(),
                          FrequencyLadder::memCoarse(),
                          FrequencyLadder::gpuCoarse());
    const SettingsSpace b(FrequencyLadder::cpuCoarse(),
                          FrequencyLadder::memCoarse(),
                          FrequencyLadder::gpuFine());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, WorkloadHashCoversTheGpuChannel)
{
    const auto workload_with = [](double kick_frac) {
        PhaseSpec spec;
        spec.name = "render";
        spec.hotFrac = 0.9;
        spec.warmFrac = 0.05;
        spec.gpuKickFrac = kick_frac;
        spec.gpuCyclesPerKick = 4000.0;
        spec.gpuActivity = 0.7;
        return WorkloadProfile(
            "render", 4, [spec](std::size_t) { return spec; }, 7,
            /*jitter=*/0.0);
    };
    EXPECT_EQ(workload_with(0.001).fingerprint(),
              workload_with(0.001).fingerprint());
    EXPECT_NE(workload_with(0.001).fingerprint(),
              workload_with(0.002).fingerprint());
}

TEST(Fingerprint, ConfigHashCoversTheGpuPowerParams)
{
    const SystemConfig base = test::fastSystemConfig();
    SystemConfig hotter = base;
    hotter.gpuPower.peakDynamic += 0.05;
    EXPECT_EQ(svc::fingerprintConfig(base),
              svc::fingerprintConfig(test::fastSystemConfig()));
    EXPECT_NE(svc::fingerprintConfig(base),
              svc::fingerprintConfig(hotter));
}

} // namespace
} // namespace mcdvfs

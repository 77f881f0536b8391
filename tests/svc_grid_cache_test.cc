/**
 * @file
 * GridCache and fingerprint tests: hit/miss/eviction accounting, LRU
 * order, and key isolation across workloads, spaces and configs.
 */

#include <gtest/gtest.h>

#include "svc/fingerprint.hh"
#include "svc/grid_cache.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

std::shared_ptr<const MeasuredGrid>
dummyGrid(const std::string &name)
{
    return std::make_shared<const MeasuredGrid>(
        name, SettingsSpace::coarse(), 4, 10'000'000);
}

svc::GridKey
keyOf(std::uint64_t workload, std::uint64_t space = 1,
      std::uint64_t config = 1)
{
    return svc::GridKey{workload, space, config};
}

TEST(GridCache, MissThenHit)
{
    svc::GridCache cache(4);
    const svc::GridKey key = keyOf(1);
    EXPECT_EQ(cache.find(key), nullptr);
    cache.insert(key, dummyGrid("a"));
    const auto found = cache.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->workload(), "a");

    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(GridCache, EvictsLeastRecentlyUsed)
{
    // One shard so the LRU order is global and deterministic.
    svc::GridCache cache(2, /*shards=*/1);
    cache.insert(keyOf(1), dummyGrid("a"));
    cache.insert(keyOf(2), dummyGrid("b"));
    // Touch "a" so "b" becomes the eviction victim.
    ASSERT_NE(cache.find(keyOf(1)), nullptr);
    cache.insert(keyOf(3), dummyGrid("c"));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(keyOf(2)), nullptr);   // evicted
    EXPECT_NE(cache.find(keyOf(1)), nullptr);   // survived the touch
    EXPECT_NE(cache.find(keyOf(3)), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(GridCache, ShardCountNeverExceedsCapacity)
{
    svc::GridCache cache(2, /*shards=*/16);
    EXPECT_LE(cache.shardCount(), 2u);
    EXPECT_THROW(svc::GridCache(0), FatalError);
    EXPECT_THROW(svc::GridCache(4, 0), FatalError);
}

TEST(GridCache, KeysIsolateEveryComponent)
{
    svc::GridCache cache(8);
    cache.insert(keyOf(1, 1, 1), dummyGrid("a"));
    EXPECT_EQ(cache.find(keyOf(2, 1, 1)), nullptr);  // other workload
    EXPECT_EQ(cache.find(keyOf(1, 2, 1)), nullptr);  // other space
    EXPECT_EQ(cache.find(keyOf(1, 1, 2)), nullptr);  // other config
    EXPECT_NE(cache.find(keyOf(1, 1, 1)), nullptr);
}

TEST(Fingerprint, StableAcrossIndependentConstruction)
{
    // Two independently built instances of the same workload, space
    // and config must produce equal fingerprints.
    EXPECT_EQ(makeGobmk().fingerprint(),
              makeGobmk().fingerprint());
    EXPECT_EQ(SettingsSpace::coarse().fingerprint(),
              SettingsSpace::coarse().fingerprint());
    EXPECT_EQ(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(SystemConfig::paperDefault()));
}

TEST(Fingerprint, DistinguishesInputs)
{
    EXPECT_NE(makeGobmk().fingerprint(),
              makeMilc().fingerprint());
    EXPECT_NE(SettingsSpace::coarse().fingerprint(),
              SettingsSpace::fine().fingerprint());

    SystemConfig tweaked;
    tweaked.measurementNoise = 0.004;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(tweaked));

    SystemConfig sampler_tweaked;
    sampler_tweaked.sampler.simInstructionsPerSample = 20'000;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(sampler_tweaked));

    SystemConfig timing_tweaked;
    timing_tweaked.timing.l2StallExposure = 0.5;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(timing_tweaked));
}

} // namespace
} // namespace mcdvfs

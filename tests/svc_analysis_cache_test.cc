/**
 * @file
 * AnalysisCache tests: hit/miss/eviction accounting, LRU order, key
 * identity over the (grid, budget, threshold) triple, and the
 * characterization service serving repeated tuning requests from the
 * analysis cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "svc/analysis_cache.hh"
#include "svc/characterization_service.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

std::shared_ptr<const svc::AnalysisResult>
dummyResult(std::size_t samples)
{
    auto result = std::make_shared<svc::AnalysisResult>();
    result->optimal.resize(samples);
    return result;
}

svc::AnalysisKey
keyOf(std::uint64_t grid, double budget = 1.3, double threshold = 0.03)
{
    return svc::AnalysisKey{grid, budget, threshold};
}

TEST(AnalysisCache, KeyDigestsMatchTheGolden)
{
    // AnalysisKey::combined() names snapshot files, so its bits must
    // never move.  Constants from the historical hand-rolled FNV loop;
    // doubles hash by raw bit pattern, so -0.0 differs from +0.0.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        svc::AnalysisKey key;
        std::uint64_t combined;
    } golden[] = {
        {{0, 0.0, 0.0}, 0x81d23fd7003c2305ull},
        {{0x0123456789abcdefull, 1.3, 0.03}, 0xf7065cf5d259f279ull},
        {{0x0123456789abcdefull, 1.3, -0.0}, 0xc84ae39d47a59785ull},
        {{0x0123456789abcdefull, -0.0, 0.03}, 0xdf036bb16471b989ull},
        {{~0ull, 2.0, 0.0}, 0xbcff81ce5509d43dull},
        {{0xfeedfacecafebeefull, inf, nan}, 0xa82ad90c934cece3ull},
        {{42, 1.1, 0.01}, 0xe8f2f4b3e36cba0cull},
    };
    for (const auto &entry : golden)
        EXPECT_EQ(entry.key.combined(), entry.combined)
            << "grid " << entry.key.grid;
}

TEST(AnalysisCache, MissThenHit)
{
    svc::AnalysisCache cache(4);
    EXPECT_EQ(cache.find(keyOf(1)), nullptr);
    cache.insert(keyOf(1), dummyResult(3));
    const auto found = cache.find(keyOf(1));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->optimal.size(), 3u);

    const svc::AnalysisCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(AnalysisCache, KeyCoversEveryComponent)
{
    svc::AnalysisCache cache(8);
    cache.insert(keyOf(1, 1.3, 0.03), dummyResult(1));
    EXPECT_EQ(cache.find(keyOf(2, 1.3, 0.03)), nullptr);  // other grid
    EXPECT_EQ(cache.find(keyOf(1, 1.6, 0.03)), nullptr);  // other budget
    EXPECT_EQ(cache.find(keyOf(1, 1.3, 0.05)), nullptr);  // other threshold
    EXPECT_NE(cache.find(keyOf(1, 1.3, 0.03)), nullptr);
}

TEST(AnalysisCache, EvictsLeastRecentlyUsed)
{
    // One shard so the LRU order is global and deterministic.
    svc::AnalysisCache cache(2, /*shards=*/1);
    cache.insert(keyOf(1), dummyResult(1));
    cache.insert(keyOf(2), dummyResult(2));
    // Touch key 1 so key 2 becomes the eviction victim.
    ASSERT_NE(cache.find(keyOf(1)), nullptr);
    cache.insert(keyOf(3), dummyResult(3));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(keyOf(2)), nullptr);  // evicted
    EXPECT_NE(cache.find(keyOf(1)), nullptr);  // survived the touch
    EXPECT_NE(cache.find(keyOf(3)), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(AnalysisCache, EvictionNeverInvalidatesHeldResults)
{
    svc::AnalysisCache cache(1, /*shards=*/1);
    cache.insert(keyOf(1), dummyResult(7));
    const auto held = cache.find(keyOf(1));
    ASSERT_NE(held, nullptr);
    cache.insert(keyOf(2), dummyResult(9));  // evicts key 1
    EXPECT_EQ(cache.find(keyOf(1)), nullptr);
    EXPECT_EQ(held->optimal.size(), 7u);  // still valid
}

TEST(AnalysisCache, ClearDropsEntriesKeepsCounters)
{
    svc::AnalysisCache cache(4);
    cache.insert(keyOf(1), dummyResult(1));
    ASSERT_NE(cache.find(keyOf(1)), nullptr);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.find(keyOf(1)), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(AnalysisCache, InvalidSizingFatal)
{
    EXPECT_THROW(svc::AnalysisCache(0), FatalError);
    EXPECT_THROW(svc::AnalysisCache(4, 0), FatalError);
    svc::AnalysisCache cache(2, /*shards=*/16);
    EXPECT_LE(cache.shardCount(), 2u);
}

TEST(AnalysisService, RepeatedRequestHitsAnalysisCache)
{
    svc::ServiceOptions options;
    options.jobs = 2;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         options);
    svc::TuningRequest request{test::steadyWorkload(),
                               SettingsSpace::coarse(), 1.3, 0.03};

    const svc::TuningResult first = service.submit(request);
    EXPECT_FALSE(first.analysisCacheHit);
    const svc::TuningResult second = service.submit(request);
    EXPECT_TRUE(second.cacheHit);          // grid cache
    EXPECT_TRUE(second.analysisCacheHit);  // analysis cache

    // The cached analysis is the same analysis.
    ASSERT_EQ(second.clusters.size(), first.clusters.size());
    for (std::size_t s = 0; s < first.clusters.size(); ++s) {
        EXPECT_EQ(second.clusters[s].settings,
                  first.clusters[s].settings);
        EXPECT_EQ(second.optimal[s].settingIndex,
                  first.optimal[s].settingIndex);
    }
    ASSERT_EQ(second.regions.size(), first.regions.size());

    const svc::AnalysisCache::Stats stats = service.analysisStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(AnalysisService, DifferentPointMissesAnalysisCache)
{
    svc::ServiceOptions options;
    options.jobs = 2;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         options);
    svc::TuningRequest request{test::steadyWorkload(),
                               SettingsSpace::coarse(), 1.3, 0.03};
    service.submit(request);

    request.threshold = 0.05;  // same grid, new analysis point
    const svc::TuningResult other = service.submit(request);
    EXPECT_TRUE(other.cacheHit);
    EXPECT_FALSE(other.analysisCacheHit);
    EXPECT_EQ(service.analysisStats().misses, 2u);
}

} // namespace
} // namespace mcdvfs

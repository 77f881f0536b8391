/**
 * @file
 * Property tests for GridCache and the service's use of it.  The
 * invariants, checked over seeded random operation streams and under
 * concurrent traffic:
 *
 *   hits + misses == lookups issued
 *   entries       <= configured capacity (per-shard capacities sum
 *                    exactly to the total; no rounding overrun)
 *   evictions     monotone non-decreasing
 *   distinct-key inserts - evictions == resident entries
 */

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "svc/characterization_service.hh"
#include "svc/grid_cache.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

std::shared_ptr<const MeasuredGrid>
dummyGrid()
{
    static const auto grid = std::make_shared<const MeasuredGrid>(
        "dummy", SettingsSpace::coarse(), 4, 10'000'000);
    return grid;
}

svc::GridKey
keyOf(std::uint64_t id)
{
    return svc::GridKey{id, 1, 1};
}

/** Assert the cross-operation invariants against a running tally. */
void
checkInvariants(const svc::GridCache &cache, std::uint64_t lookups,
                std::uint64_t last_evictions)
{
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups);
    EXPECT_LE(stats.entries, cache.capacity());
    EXPECT_GE(stats.evictions, last_evictions);
}

TEST(GridCacheProperty, RandomOpsKeepInvariants)
{
    // Deliberately include capacities that do not divide evenly by
    // the shard count: the ceil-rounded per-shard sizing this test
    // originally exposed let the cache exceed its configured total.
    const std::size_t combos[][2] = {
        {1, 1}, {1, 8}, {2, 2}, {5, 4}, {7, 3}, {8, 8}, {13, 8},
    };
    for (const auto &combo : combos) {
        const std::size_t capacity = combo[0], shards = combo[1];
        svc::GridCache cache(capacity, shards);
        std::mt19937_64 rng(99 + capacity * 31 + shards);
        std::uniform_int_distribution<std::uint64_t> pick_key(1, 12);
        std::uniform_int_distribution<int> pick_op(0, 9);

        std::uint64_t lookups = 0;
        std::uint64_t last_evictions = 0;
        for (int step = 0; step < 600; ++step) {
            const std::uint64_t id = pick_key(rng);
            const int op = pick_op(rng);
            if (op < 5) {
                cache.find(keyOf(id));
                ++lookups;
            } else if (op < 9) {
                cache.insert(keyOf(id), dummyGrid());
            } else if (step % 97 == 0) {
                cache.clear();
            }
            checkInvariants(cache, lookups, last_evictions);
            last_evictions = cache.stats().evictions;
        }
    }
}

TEST(GridCacheProperty, DistinctInsertsBalanceEvictionsAndResidency)
{
    for (const std::size_t shards : {1u, 3u, 4u, 8u}) {
        const std::size_t capacity = 5;
        svc::GridCache cache(capacity, shards);
        // Every key distinct: each insert adds exactly one entry or
        // (once its shard is full) trades one for an eviction.
        const std::size_t inserted = 40;
        for (std::size_t id = 1; id <= inserted; ++id)
            cache.insert(keyOf(id), dummyGrid());

        const svc::GridCache::Stats stats = cache.stats();
        EXPECT_LE(stats.entries, capacity) << "shards " << shards;
        EXPECT_EQ(inserted - stats.evictions, stats.entries)
            << "shards " << shards;
    }
}

TEST(GridCacheProperty, ReinsertingResidentKeysNeverGrows)
{
    svc::GridCache cache(3, /*shards=*/2);
    for (int round = 0; round < 10; ++round) {
        for (std::uint64_t id = 1; id <= 3; ++id)
            cache.insert(keyOf(id), dummyGrid());
    }
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_LE(stats.entries, 3u);
    // Refreshing a resident key must not evict anything by itself.
    const std::uint64_t evictions_before = stats.evictions;
    cache.insert(keyOf(1), dummyGrid());
    EXPECT_EQ(cache.stats().evictions, evictions_before);
}

TEST(GridCacheProperty, ConcurrentTrafficKeepsAccountingExact)
{
    svc::GridCache cache(5, /*shards=*/4);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOpsPerThread = 800;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::vector<std::uint64_t> lookups(kThreads, 0);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &lookups, t] {
            std::mt19937_64 rng(7 + t);  // deterministic per thread
            std::uniform_int_distribution<std::uint64_t> pick_key(1, 9);
            for (std::size_t op = 0; op < kOpsPerThread; ++op) {
                const std::uint64_t id = pick_key(rng);
                if (op % 2 == 0) {
                    cache.find(keyOf(id));
                    ++lookups[t];
                } else {
                    cache.insert(keyOf(id), dummyGrid());
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::uint64_t total_lookups = 0;
    for (const std::uint64_t count : lookups)
        total_lookups += count;
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, total_lookups);
    EXPECT_LE(stats.entries, cache.capacity());
}

TEST(GridCacheProperty, ConcurrentSubmitBatchKeepsServiceAccounting)
{
    // N client threads push identical batches (two workloads, two
    // budgets each) through one service, one submit() per request, so
    // the cache sees exactly (threads * rounds * 4) lookups, each a
    // hit or a miss that builds (concurrent misses of one workload
    // each build), and the cache never exceeds its capacity.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRounds = 3;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         svc::ServiceOptions{2, 4, 4});

    std::vector<svc::TuningRequest> batch;
    for (const WorkloadProfile &workload :
         {test::steadyWorkload(), test::phasedWorkload()}) {
        for (const double budget : {1.1, 1.5}) {
            batch.push_back(svc::TuningRequest{
                workload, SettingsSpace::coarse(), budget, 0.03});
        }
    }

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&service, &batch] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                for (const svc::TuningRequest &request : batch) {
                    const svc::TuningResult result =
                        service.submit(request);
                    ASSERT_NE(result.grid, nullptr);
                    EXPECT_EQ(result.budget, request.budget);
                    EXPECT_EQ(result.grid->sampleCount(),
                              request.workload.sampleCount());
                }
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    const svc::GridCache::Stats stats = service.cacheStats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * 4);
    EXPECT_LE(stats.entries, 4u);
    EXPECT_GE(stats.misses, 2u);
    EXPECT_GE(stats.hits, 1u);
}

} // namespace
} // namespace mcdvfs

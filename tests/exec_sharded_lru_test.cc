/**
 * @file
 * ShardedLru tests under a constant hash, so every key collides: keys
 * stay separately retrievable and never replace each other's values,
 * eviction takes the LRU tail, a multi-key lookup counts one hit or
 * one miss per call, and concurrent colliding traffic keeps the
 * accounting exact.  Real key digests almost never collide, so the
 * cache aliases' own tests cannot reach these paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "exec/sharded_lru.hh"

namespace mcdvfs
{
namespace
{

struct Key
{
    std::uint64_t id = 0;

    bool operator==(const Key &other) const { return id == other.id; }
};

/** Every key hashes alike: one shard, one bucket, all collisions. */
struct ConstantHash
{
    std::size_t operator()(const Key &) const noexcept { return 7; }
};

using Lru = exec::ShardedLru<Key, std::uint64_t, ConstantHash>;

std::shared_ptr<const std::uint64_t>
value(std::uint64_t v)
{
    return std::make_shared<const std::uint64_t>(v);
}

TEST(ShardedLru, CollidingKeysStaySeparate)
{
    Lru lru(8, /*shards=*/4, "test.sharded_lru");
    // With every key in shard 7 % 4 = 3, which holds 2 of the 8.
    lru.insert(Key{1}, value(10));
    lru.insert(Key{2}, value(20));
    ASSERT_NE(lru.find(Key{1}), nullptr);
    ASSERT_NE(lru.find(Key{2}), nullptr);
    EXPECT_EQ(*lru.find(Key{1}), 10u);
    EXPECT_EQ(*lru.find(Key{2}), 20u);

    // Re-inserting one key replaces its own value, not the other's.
    lru.insert(Key{2}, value(21));
    EXPECT_EQ(*lru.find(Key{1}), 10u);
    EXPECT_EQ(*lru.find(Key{2}), 21u);
    EXPECT_EQ(lru.find(Key{3}), nullptr);

    const Lru::Stats stats = lru.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.hits, 6u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedLru, EvictsTheLruTailAmongCollidingKeys)
{
    Lru lru(3, /*shards=*/1, "test.sharded_lru");
    lru.insert(Key{1}, value(1));
    lru.insert(Key{2}, value(2));
    lru.insert(Key{3}, value(3));
    // Touch 1, then re-insert 2: the tail is now 3.
    ASSERT_NE(lru.find(Key{1}), nullptr);
    lru.insert(Key{2}, value(22));
    lru.insert(Key{4}, value(4));
    EXPECT_EQ(lru.find(Key{3}), nullptr);
    // Then 1 (touched before 2 and 4).
    lru.insert(Key{5}, value(5));
    EXPECT_EQ(lru.find(Key{1}), nullptr);
    EXPECT_EQ(*lru.find(Key{2}), 22u);
    EXPECT_EQ(*lru.find(Key{4}), 4u);
    EXPECT_EQ(*lru.find(Key{5}), 5u);

    const Lru::Stats stats = lru.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.entries, 3u);
}

TEST(ShardedLru, MultiKeyLookupCountsOncePerCall)
{
    Lru lru(4, /*shards=*/2, "test.sharded_lru");
    lru.insert(Key{3}, value(3));
    lru.insert(Key{2}, value(2));

    // The first resident candidate wins, even with later ones present.
    const auto hit =
        lru.find(std::vector<Key>{Key{1}, Key{3}, Key{2}});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 3u);
    Lru::Stats stats = lru.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);

    EXPECT_EQ(lru.find(std::vector<Key>{Key{1}, Key{4}, Key{5}}),
              nullptr);
    EXPECT_EQ(lru.find(std::vector<Key>{}), nullptr);
    stats = lru.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);

    // The winning candidate's LRU position is refreshed: key 3 was
    // the tail before the hit, so with the shard (capacity 2) full
    // the next insert evicts key 2 instead.
    lru.insert(Key{6}, value(6));
    EXPECT_EQ(lru.find(Key{2}), nullptr);
    EXPECT_NE(lru.find(Key{3}), nullptr);
}

TEST(ShardedLru, ConcurrentCollidingTrafficKeepsAccountingExact)
{
    Lru lru(6, /*shards=*/3, "test.sharded_lru");
    constexpr int kThreads = 4;
    constexpr int kOps = 2000;
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                const std::uint64_t id = (i * 7 + t) % 5;
                if (i % 3 == 0) {
                    lru.insert(Key{id}, value(id * 100));
                } else {
                    lookups.fetch_add(1);
                    const auto found = lru.find(Key{id});
                    if (found != nullptr && *found != id * 100)
                        wrong.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const Lru::Stats stats = lru.stats();
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(stats.hits + stats.misses, lookups.load());
    // All five keys share shard 7 % 3 = 1, which holds 2 of the 6.
    EXPECT_EQ(stats.entries, 2u);
}

} // namespace
} // namespace mcdvfs

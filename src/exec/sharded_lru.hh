/**
 * @file
 * The sharded LRU cache every memoizing layer builds on.
 *
 * The paper pays for characterization once per sample and reuses it
 * for every budget and threshold; this repository serves that reuse
 * from four stores, all instances of this one template: canonical
 * sample profiles (sim/profile_cache.hh), measured grids
 * (svc/grid_cache.hh), and analysis results plus their resumable
 * checkpoints (svc/analysis_cache.hh).
 *
 * The key space is split into shards by Hash(key) modulo the shard
 * count; each shard holds its own mutex, LRU list and index, so
 * concurrent threads only contend when they land on the same shard.
 * The index is keyed by the *full* key: two keys whose digests
 * collide share a shard but never an entry.  The configured capacity
 * is split so that the shard capacities sum exactly to it, and a
 * full shard evicts its least recently used entry.  Values are held
 * by shared_ptr, so eviction never invalidates a value a caller
 * still holds.
 *
 * Hits, misses and evictions are obs::OwnedCounters: one add per
 * event moves both the instance's Stats and the <prefix>.{hits,misses,
 * evictions} series.  <prefix>.inserts and the <prefix>.entries gauge
 * are registry-only.  Instances sharing a prefix share the series,
 * which then report the sum over those instances.
 */

#ifndef MCDVFS_EXEC_SHARDED_LRU_HH
#define MCDVFS_EXEC_SHARDED_LRU_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace mcdvfs
{
namespace exec
{

/**
 * Hash functor for keys that carry their own 64-bit digest.  Not
 * noexcept on purpose: libstdc++ stores each node's hash code only
 * for hashers that may throw, and with stored codes a hash map's
 * bucket walks and rehashes never run the byte-wise FNV again.
 */
struct DigestHash
{
    template <typename Key>
    std::size_t
    operator()(const Key &key) const
    {
        return static_cast<std::size_t>(key.combined());
    }
};

/** Sharded, mutex-guarded LRU map from Key to shared const Value. */
template <typename Key, typename Value, typename Hash = DigestHash>
class ShardedLru
{
  public:
    /** Hit/miss/eviction counters (monotonic over the cache's life). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };

    /**
     * @param capacity maximum entries across all shards (>= 1)
     * @param shards number of independently locked shards (>= 1),
     *        capped at @c capacity so every shard can hold an entry
     * @param metric_prefix registry prefix for this instance's
     *        metrics (e.g. "svc.cache" -> "svc.cache.hits")
     * @throws FatalError for a zero capacity or shard count
     */
    ShardedLru(std::size_t capacity, std::size_t shards,
               const std::string &metric_prefix)
        : capacity_(capacity), hits_(metric_prefix + ".hits"),
          misses_(metric_prefix + ".misses"),
          evictions_(metric_prefix + ".evictions")
    {
        if (capacity == 0)
            fatal(metric_prefix, ": cache capacity must be at least 1");
        if (shards == 0)
            fatal(metric_prefix, ": cache shard count must be at least 1");
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        metricInserts_ = reg.counter(metric_prefix + ".inserts");
        metricEntries_ = reg.gauge(metric_prefix + ".entries");
        // Remainder entries go to the first shards, so the shard
        // capacities sum to the configured total and the cache never
        // holds more than asked for.
        shards = std::min(shards, capacity);
        const std::size_t base = capacity / shards;
        const std::size_t remainder = capacity % shards;
        shards_.reserve(shards);
        for (std::size_t i = 0; i < shards; ++i) {
            auto shard = std::make_unique<Shard>();
            shard->capacity = base + (i < remainder ? 1 : 0);
            shards_.push_back(std::move(shard));
        }
    }

    /** Returns this instance's resident entries to the gauge. */
    ~ShardedLru()
    {
        std::size_t resident = 0;
        for (const auto &shard : shards_)
            resident += shard->lru.size();
        metricEntries_.add(-static_cast<std::int64_t>(resident));
    }

    ShardedLru(const ShardedLru &) = delete;
    ShardedLru &operator=(const ShardedLru &) = delete;

    /** Look up one key; same as the candidate-list form. */
    std::shared_ptr<const Value>
    find(const Key &key)
    {
        return find(std::span<const Key>(&key, 1));
    }

    /**
     * Return the value of the first resident key among @c candidates,
     * refreshing its LRU position; nullptr when none is resident.
     * The call counts one hit or one miss, however many candidates it
     * probes (the checkpoint store passes every prefix of a grid,
     * longest first, to find the longest one analyzed).
     */
    std::shared_ptr<const Value>
    find(std::span<const Key> candidates)
    {
        for (const Key &key : candidates) {
            const Slot slot{Hash{}(key), key};
            Shard &shard = shardFor(slot);
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.index.find(slot);
            if (it == shard.index.end())
                continue;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            hits_.add();
            return it->second->second;
        }
        misses_.add();
        return nullptr;
    }

    /**
     * Insert (or replace and refresh) the value under @c key,
     * evicting the shard's least recently used entry when the shard
     * is full.
     */
    void
    insert(const Key &key, std::shared_ptr<const Value> value)
    {
        const Slot slot{Hash{}(key), key};
        Shard &shard = shardFor(slot);
        std::lock_guard<std::mutex> lock(shard.mutex);
        metricInserts_.add(1);
        const auto it = shard.index.find(slot);
        if (it != shard.index.end()) {
            it->second->second = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        if (shard.lru.size() >= shard.capacity) {
            shard.index.erase(shard.lru.back().first);
            shard.lru.pop_back();
            evictions_.add();
            metricEntries_.add(-1);
        }
        shard.lru.emplace_front(slot, std::move(value));
        shard.index.emplace(slot, shard.lru.begin());
        metricEntries_.add(1);
    }

    /** Drop every entry (counters are kept). */
    void
    clear()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            metricEntries_.add(
                -static_cast<std::int64_t>(shard->lru.size()));
            shard->lru.clear();
            shard->index.clear();
        }
    }

    Stats
    stats() const
    {
        Stats stats;
        stats.hits = hits_.value();
        stats.misses = misses_.value();
        stats.evictions = evictions_.value();
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            stats.entries += shard->lru.size();
        }
        return stats;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t shardCount() const { return shards_.size(); }

  private:
    /**
     * Index key: the full key plus its hash, computed once per call
     * and reused for the shard, the bucket and a later eviction.
     */
    struct Slot
    {
        std::size_t hash;
        Key key;

        bool
        operator==(const Slot &other) const
        {
            return hash == other.hash && key == other.key;
        }
    };

    struct SlotHash
    {
        std::size_t
        operator()(const Slot &slot) const noexcept
        {
            return slot.hash;
        }
    };

    using Entry = std::pair<Slot, std::shared_ptr<const Value>>;

    struct Shard
    {
        std::mutex mutex;
        /** Entries this shard may hold. */
        std::size_t capacity = 1;
        /** Front = most recently used. */
        std::list<Entry> lru;
        std::unordered_map<Slot, typename std::list<Entry>::iterator,
                           SlotHash>
            index;
    };

    Shard &
    shardFor(const Slot &slot)
    {
        return *shards_[slot.hash % shards_.size()];
    }

    std::size_t capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
    obs::OwnedCounter hits_;
    obs::OwnedCounter misses_;
    obs::OwnedCounter evictions_;
    obs::Counter metricInserts_;
    obs::Gauge metricEntries_;
};

} // namespace exec
} // namespace mcdvfs

#endif // MCDVFS_EXEC_SHARDED_LRU_HH

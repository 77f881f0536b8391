/**
 * @file
 * Sharded LRU cache of characterization results.
 *
 * Characterizing a workload is the dominant cost of every analysis
 * (hundreds of samples through the cache/DRAM simulator), while the
 * result — a MeasuredGrid — is reusable across budgets and thresholds.
 * GridCache keeps recently built grids keyed by the fingerprint triple
 * (workload, settings space, system config) so repeated requests skip
 * re-characterization entirely.
 *
 * The key space is sharded and each shard holds its own mutex, so
 * concurrent service threads only contend when they land on the same
 * shard.  Grids are held by shared_ptr: eviction never invalidates a
 * grid a caller is still analyzing.
 */

#ifndef MCDVFS_SVC_GRID_CACHE_HH
#define MCDVFS_SVC_GRID_CACHE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/measured_grid.hh"

namespace mcdvfs
{
namespace svc
{

/** Identity of one characterization (see svc/fingerprint.hh). */
struct GridKey
{
    std::uint64_t workload = 0;  ///< WorkloadProfile::fingerprint()
    std::uint64_t space = 0;     ///< SettingsSpace::fingerprint()
    std::uint64_t config = 0;    ///< fingerprintConfig()

    bool
    operator==(const GridKey &other) const
    {
        return workload == other.workload && space == other.space &&
               config == other.config;
    }

    /** Combined 64-bit digest (shard selection and map hashing). */
    std::uint64_t combined() const;
};

/** Sharded, mutex-guarded LRU cache of MeasuredGrids. */
class GridCache
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
     * @param capacity maximum cached grids across all shards (>= 1)
     * @param shards number of independently locked shards (>= 1);
     *        per-shard capacities sum exactly to @c capacity, so the
     *        cache never holds more grids than configured
     * @throws FatalError for a zero capacity or shard count
     */
    explicit GridCache(std::size_t capacity, std::size_t shards = 8);

    ~GridCache();

    /**
     * Look up a grid, refreshing its LRU position.  Counts a hit or a
     * miss; returns nullptr on miss.
     */
    std::shared_ptr<const MeasuredGrid> find(const GridKey &key);

    /**
     * Insert (or refresh) a grid, evicting the shard's least recently
     * used entry when the shard is full.
     */
    void insert(const GridKey &key,
                std::shared_ptr<const MeasuredGrid> grid);

    /** Drop every entry (counters are kept). */
    void clear();

    Stats stats() const;
    std::size_t capacity() const { return capacity_; }
    std::size_t shardCount() const { return shards_.size(); }

  private:
    struct Entry
    {
        GridKey key;
        std::shared_ptr<const MeasuredGrid> grid;
    };

    /** One LRU list + index, guarded by its own mutex. */
    struct Shard
    {
        std::mutex mutex;
        /** Entries this shard may hold (shard capacities sum to
         *  the cache capacity). */
        std::size_t capacity = 1;
        /** Front = most recently used. */
        std::list<Entry> lru;
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
            index;
    };

    Shard &shardFor(const GridKey &key);

    std::size_t capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_GRID_CACHE_HH

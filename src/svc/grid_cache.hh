/**
 * @file
 * LRU cache of characterization results.
 *
 * Characterizing a workload is the dominant cost of every analysis
 * (hundreds of samples through the cache/DRAM simulator), while the
 * result — a MeasuredGrid — is reusable across budgets and thresholds.
 * GridCache keeps recently built grids keyed by the fingerprint triple
 * (workload, settings space, system config) so repeated requests skip
 * re-characterization entirely.  It is the common sharded LRU
 * (exec/sharded_lru.hh) under the svc.cache metric prefix.
 */

#ifndef MCDVFS_SVC_GRID_CACHE_HH
#define MCDVFS_SVC_GRID_CACHE_HH

#include <cstdint>

#include "common/hash.hh"
#include "exec/sharded_lru.hh"
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

    /**
     * Byte-wise FNV-1a of the three component digests: shard
     * selection and hashing, the snapshot file name, and the grid
     * identity inside AnalysisKey.
     */
    std::uint64_t
    combined() const
    {
        std::uint64_t hash = kFnvOffsetBasis;
        for (const std::uint64_t part : {workload, space, config})
            hash = fnv1aWordBytes(hash, part);
        return hash;
    }
};

/** Sharded LRU cache of MeasuredGrids (svc.cache.* metrics). */
class GridCache : public exec::ShardedLru<GridKey, MeasuredGrid>
{
  public:
    /** @see exec::ShardedLru::ShardedLru */
    explicit GridCache(std::size_t capacity, std::size_t shards = 8)
        : ShardedLru(capacity, shards, "svc.cache")
    {
    }
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_GRID_CACHE_HH

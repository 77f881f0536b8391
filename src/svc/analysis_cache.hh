/**
 * @file
 * LRU caches of analysis results and resumable analysis checkpoints.
 *
 * A grid served from GridCache still pays the §V/§VI analysis chain on
 * every request — optimal trajectory, clusters, stable regions — which
 * dominates the hot path once characterization is cached.  Tuning
 * traffic is repetitive in exactly that dimension: dashboards and
 * retune loops ask for the same (grid, budget, threshold) triple over
 * and over.  AnalysisCache keys finished analyses by the grid's
 * content fingerprint plus the bit patterns of budget and threshold,
 * so repeated requests skip the analysis chain too.
 *
 * CheckpointCache holds AnalysisCheckpoints — resumable incremental
 * state keyed by (grid *content prefix* digest, budget, threshold),
 * see MeasuredGrid::prefixDigest.  A streaming workload that grew by a
 * few samples has a different result key (its full fingerprint
 * changed) but shares every prefix digest with its shorter past, so
 * the service looks up all prefixes, longest first, in one find() and
 * analyzes only the tail.
 *
 * Both are the common sharded LRU (exec/sharded_lru.hh), counted under
 * svc.analysis.* and svc.checkpoint.* respectively.
 */

#ifndef MCDVFS_SVC_ANALYSIS_CACHE_HH
#define MCDVFS_SVC_ANALYSIS_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "core/incremental_analysis.hh"
#include "core/stable_regions.hh"
#include "exec/sharded_lru.hh"

namespace mcdvfs
{
namespace svc
{

/** Identity of one analysis: a grid at one budget and threshold. */
struct AnalysisKey
{
    /** GridKey::combined() of the analyzed grid. */
    std::uint64_t grid = 0;
    double budget = 0.0;
    double threshold = 0.0;

    /** Exact bit-pattern equality on the doubles (cache identity). */
    bool
    operator==(const AnalysisKey &other) const
    {
        return grid == other.grid &&
               std::bit_cast<std::uint64_t>(budget) ==
                   std::bit_cast<std::uint64_t>(other.budget) &&
               std::bit_cast<std::uint64_t>(threshold) ==
                   std::bit_cast<std::uint64_t>(other.threshold);
    }

    /**
     * Byte-wise FNV-1a of the grid digest and the raw bit patterns of
     * budget and threshold (so -0.0 and +0.0 stay distinct, as in
     * operator==): shard selection and hashing, and the snapshot file
     * name.
     */
    std::uint64_t
    combined() const
    {
        std::uint64_t hash = kFnvOffsetBasis;
        for (const std::uint64_t part :
             {grid, std::bit_cast<std::uint64_t>(budget),
              std::bit_cast<std::uint64_t>(threshold)})
            hash = fnv1aWordBytes(hash, part);
        return hash;
    }
};

/** One cached analysis: the §V/§VI chain's output for its key. */
struct AnalysisResult
{
    std::vector<OptimalChoice> optimal;
    std::vector<PerformanceCluster> clusters;
    std::vector<StableRegion> regions;
};

/** Sharded LRU cache of AnalysisResults (svc.analysis.* metrics). */
class AnalysisCache : public exec::ShardedLru<AnalysisKey, AnalysisResult>
{
  public:
    /** @see exec::ShardedLru::ShardedLru */
    explicit AnalysisCache(std::size_t capacity, std::size_t shards = 8)
        : ShardedLru(capacity, shards, "svc.analysis")
    {
    }
};

/**
 * Sharded LRU store of resumable analysis checkpoints, keyed by the
 * prefix they cover (svc.checkpoint.* metrics).
 */
class CheckpointCache
    : public exec::ShardedLru<AnalysisKey, AnalysisCheckpoint>
{
  public:
    /** @see exec::ShardedLru::ShardedLru */
    explicit CheckpointCache(std::size_t capacity, std::size_t shards = 8)
        : ShardedLru(capacity, shards, "svc.checkpoint")
    {
    }
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_ANALYSIS_CACHE_HH

/**
 * @file
 * Characterization + tuning front end.
 *
 * CharacterizationService is the serving layer over the whole library:
 * one object owning a thread pool and a grid cache, answering tuning
 * requests — "what are the optimal settings, clusters and stable
 * regions of this workload over this settings space under this
 * budget?" — without the caller touching GridRunner or the analysis
 * chain.
 *
 * Four mechanisms make repeated traffic cheap:
 *  - the per-setting model evaluation of a grid build fans out over
 *    the pool (bit-identical to the serial build, see GridRunner);
 *  - finished grids land in an LRU cache keyed by content
 *    fingerprints, so any request over the same (workload, space,
 *    config) skips characterization entirely;
 *  - finished analyses land in a second LRU cache keyed by
 *    (grid fingerprint, budget, threshold), so repeated tuning
 *    requests skip the §V/§VI analysis chain as well;
 *  - streaming workloads resume: every result-cache miss is one
 *    pooled IncrementalAnalyzer::extend (core/incremental_analysis.hh)
 *    from the longest already-analyzed *content prefix* of the grid in
 *    the checkpoint store (MeasuredGrid::prefixDigest), or from an
 *    empty checkpoint, bit-identical to a full recompute.
 *
 * The service answers one request per call; daemon::TuningDaemon is
 * the batch loop that groups requests by GridKey and joins later
 * requests to a grid it is already building.
 */

#ifndef MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH
#define MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/stable_regions.hh"
#include "exec/thread_pool.hh"
#include "sim/grid_runner.hh"
#include "sim/profile_cache.hh"
#include "svc/analysis_cache.hh"
#include "svc/grid_cache.hh"

namespace mcdvfs
{
namespace svc
{

/** One tuning request. */
struct TuningRequest
{
    WorkloadProfile workload;
    SettingsSpace space;
    /** Inefficiency budget (>= 1), as in OptimalSettingsFinder. */
    double budget = 1.3;
    /** Cluster performance threshold (e.g. 0.03 for 3%). */
    double threshold = 0.03;
};

/**
 * Read-only view of one vector inside a shared, immutable result.
 * The view holds a reference on the result it points into, so its
 * elements stay valid as long as any copy of the view lives, however
 * the cache that produced them evicts.  A default view is empty.
 */
template <typename T>
class SharedVector
{
  public:
    SharedVector() = default;

    /** View @c items, which @c owner keeps alive. */
    template <typename Owner>
    SharedVector(std::shared_ptr<Owner> owner, const std::vector<T> &items)
        : items_(std::move(owner), &items)
    {
    }

    const std::vector<T> &get() const
    {
        return items_ != nullptr ? *items_ : none();
    }
    operator const std::vector<T> &() const { return get(); }

    typename std::vector<T>::const_iterator begin() const
    {
        return get().begin();
    }
    typename std::vector<T>::const_iterator end() const
    {
        return get().end();
    }
    std::size_t size() const { return get().size(); }
    bool empty() const { return get().empty(); }
    const T &operator[](std::size_t i) const { return get()[i]; }
    const T &front() const { return get().front(); }
    const T &back() const { return get().back(); }

  private:
    static const std::vector<T> &
    none()
    {
        static const std::vector<T> nothing;
        return nothing;
    }

    std::shared_ptr<const std::vector<T>> items_;
};

/**
 * Everything a tuner needs for one (workload, budget, threshold).
 *
 * The analysis fields are read-only views into the cached
 * AnalysisResult: a cache hit hands out references, not copies, and
 * results served for one key share storage.
 */
struct TuningResult
{
    /** The measured grid (shared with the cache; always valid). */
    std::shared_ptr<const MeasuredGrid> grid;
    /**
     * The §V/§VI analysis the three views below point into (shared
     * with the analysis cache; null only in a default result).
     */
    std::shared_ptr<const AnalysisResult> analysis;
    /** Per-sample optimal settings under the budget (§V). */
    SharedVector<OptimalChoice> optimal;
    /** Per-sample performance clusters (§VI-A). */
    SharedVector<PerformanceCluster> clusters;
    /** Stable regions tiling the run (§VI-B). */
    SharedVector<StableRegion> regions;
    double budget = 0.0;
    double threshold = 0.0;
    /**
     * True when the grid came from the cache, or from the build an
     * earlier member of the same daemon build group ran, instead of
     * being characterized for this request.
     */
    bool cacheHit = false;
    /**
     * True when the §V/§VI analysis came from the analysis cache
     * instead of being recomputed for this request.
     */
    bool analysisCacheHit = false;
    /**
     * True when the analysis resumed from a cached incremental
     * checkpoint of a sample prefix instead of recomputing the full
     * history; resumedFromSamples is the prefix length it resumed
     * from (0 when not resumed).
     */
    bool analysisResumed = false;
    std::size_t resumedFromSamples = 0;
};

/** Sizing knobs of a CharacterizationService. */
struct ServiceOptions
{
    /**
     * Worker threads for grid builds and analysis fills: the pool has
     * max(1, jobs) workers, so 0 means 1.  The calling thread takes
     * part in every fill as well (ThreadPool::parallelFor).
     */
    std::size_t jobs = 1;
    /** Grids kept by the LRU cache. */
    std::size_t cacheCapacity = 32;
    /** Analyses kept by the analysis LRU cache. */
    std::size_t analysisCapacity = 64;
    /**
     * Incremental-analysis checkpoints kept by the checkpoint store;
     * 0 disables streaming resume entirely.
     */
    std::size_t checkpointCapacity = 64;
    /**
     * Characterization memoization (sim::ProfileCache) capacity; 0 —
     * the default — disables it and keeps the historical warm-state
     * characterization bit-identical.  When enabled, every sample is
     * characterized canonically and each distinct (phase, seed,
     * instructions, sampler config) simulates once *across all
     * workloads* the service ever sees ("svc.profile.*" counters).
     * Enabling changes grid content (canonical vs warm-state
     * profiles), so it is mixed into the config fingerprint: grids
     * built with and without memoization never alias in the grid
     * cache or the snapshot store.
     */
    std::size_t profileCacheCapacity = 0;
};

/** Thread-pooled, grid-cached tuning service. */
class CharacterizationService
{
  public:
    using Options = ServiceOptions;

    explicit CharacterizationService(
        const SystemConfig &config = SystemConfig::paperDefault(),
        const Options &options = ServiceOptions());

    /**
     * The measured grid of @c workload over @c space: served from the
     * cache when fingerprints match, characterized (in parallel)
     * otherwise.
     */
    std::shared_ptr<const MeasuredGrid> grid(
        const WorkloadProfile &workload, const SettingsSpace &space);

    /**
     * Same, reporting through @c cache_hit whether the grid was served
     * from the cache instead of characterized for this call.
     */
    std::shared_ptr<const MeasuredGrid> grid(
        const WorkloadProfile &workload, const SettingsSpace &space,
        bool &cache_hit);

    /** Content identity of one characterization. */
    GridKey keyFor(const WorkloadProfile &workload,
                   const SettingsSpace &space) const;

    /**
     * The cached grid of @c key, or nullptr: one counted grid-cache
     * hit or miss.  grid() is findGrid() and, on a miss, buildGrid().
     */
    std::shared_ptr<const MeasuredGrid> findGrid(const GridKey &key);

    /**
     * The grid of @c key after findGrid() missed: characterizes it,
     * counts the build and inserts it into the cache.  Counts no
     * second cache hit or miss.  Concurrent calls for one key each
     * build (bit-identical grids; the last insert wins):
     * daemon::TuningDaemon runs at most one build task per key.
     */
    std::shared_ptr<const MeasuredGrid> buildGrid(
        const GridKey &key, const WorkloadProfile &workload,
        const SettingsSpace &space);

    /**
     * Run (or fetch from the analysis cache) the §V/§VI analysis chain
     * for one request over an already-fetched grid.  @c grid_digest is
     * the grid's GridKey::combined(); @c cache_hit is copied into the
     * result's cacheHit field.  This is the daemon's analysis stage;
     * submit() is equivalent to keyFor + grid + analyze.
     */
    TuningResult analyze(const TuningRequest &request,
                         std::uint64_t grid_digest,
                         std::shared_ptr<const MeasuredGrid> grid,
                         bool cache_hit);

    /** Answer one tuning request. */
    TuningResult submit(const TuningRequest &request);

    /**
     * @name Warm-restart priming.
     *
     * Insert an externally obtained (snapshot-loaded) grid or analysis
     * directly into the caches, so a daemon restart starts hot instead
     * of recharacterizing.  Neither counts a hit or a miss; entries
     * are subject to normal LRU eviction.
     */
    ///@{
    void primeGrid(const GridKey &key,
                   std::shared_ptr<const MeasuredGrid> grid);
    void primeAnalysis(const AnalysisKey &key,
                       std::shared_ptr<const AnalysisResult> result);
    ///@}

    GridCache::Stats cacheStats() const { return cache_.stats(); }
    AnalysisCache::Stats analysisStats() const
    {
        return analysisCache_.stats();
    }

    /**
     * Checkpoint-store traffic, one hit or miss per prefix walk (all
     * zeros when streaming resume is disabled).
     */
    CheckpointCache::Stats checkpointStats() const
    {
        return checkpoints_ ? checkpoints_->stats()
                            : CheckpointCache::Stats{};
    }

    /** True when characterization memoization is on. */
    bool profileCacheEnabled() const { return profileCache_ != nullptr; }

    /**
     * Profile-cache traffic (all zeros when memoization is disabled).
     */
    ProfileCache::Stats profileStats() const
    {
        return profileCache_ ? profileCache_->stats()
                             : ProfileCache::Stats{};
    }
    const SystemConfig &config() const { return config_; }
    std::size_t jobs() const { return pool_.size(); }

    /** The pool grid builds, analysis fills and daemon builds use. */
    exec::ThreadPool &pool() { return pool_; }

  private:
    /** findGrid(), then buildGrid() on a miss. */
    std::shared_ptr<const MeasuredGrid> gridFor(
        const GridKey &key, const WorkloadProfile &workload,
        const SettingsSpace &space, bool &cache_hit);

    SystemConfig config_;
    std::uint64_t configFingerprint_;
    exec::ThreadPool pool_;
    /**
     * Characterization memoization shared by every build this service
     * runs (created only when profileCacheCapacity > 0).  Declared
     * before runner_, which holds a pointer into it.
     */
    std::unique_ptr<ProfileCache> profileCache_;
    /**
     * One runner for all builds, so precomputed per-space tables and
     * the profile cache persist across workloads (run() is
     * thread-safe; concurrent builders share it).
     */
    GridRunner runner_;
    GridCache cache_;
    AnalysisCache analysisCache_;
    /**
     * Resumable analysis checkpoints (created only when
     * checkpointCapacity > 0).
     */
    std::unique_ptr<CheckpointCache> checkpoints_;
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH

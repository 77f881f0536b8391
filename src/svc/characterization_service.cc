#include "svc/characterization_service.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/incremental_analysis.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/fingerprint.hh"

namespace mcdvfs
{
namespace svc
{

namespace
{

/** Process-wide service metrics (all instances share them). */
struct ServiceMetrics
{
    obs::Counter requests;
    obs::Counter gridBuilds;
    obs::Counter analyzeNs;
    obs::Histogram submitNs;
    obs::Histogram buildNs;

    ServiceMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const auto latency = obs::MetricsRegistry::latencyBucketsNs();
        requests = reg.counter("svc.service.requests");
        gridBuilds = reg.counter("svc.service.grid_builds");
        analyzeNs = reg.counter("svc.service.analyze_ns");
        submitNs = reg.histogram("svc.service.submit_ns", latency);
        buildNs = reg.histogram("svc.service.build_ns", latency);
    }
};

ServiceMetrics &
serviceMetrics()
{
    static ServiceMetrics metrics;
    return metrics;
}

/**
 * Lock granularity of every cache the service owns: one shard, an
 * exact LRU (a fixed per-shard share of the capacity evicts keys that
 * hash unevenly before the cache is full).  Only the daemon's batcher
 * and build tasks probe the grid, analysis and checkpoint caches, and
 * the profile cache sees one probe per simulated sample.
 */
constexpr std::size_t kCacheShards = 1;

} // namespace

CharacterizationService::CharacterizationService(const SystemConfig &config,
                                                 const Options &options)
    : config_(config), configFingerprint_(fingerprintConfig(config)),
      pool_(std::max<std::size_t>(1, options.jobs)),
      profileCache_(options.profileCacheCapacity > 0
                        ? std::make_unique<ProfileCache>(
                              options.profileCacheCapacity, kCacheShards,
                              "svc.profile")
                        : nullptr),
      runner_(config_), cache_(options.cacheCapacity, kCacheShards),
      analysisCache_(options.analysisCapacity, kCacheShards),
      checkpoints_(options.checkpointCapacity > 0
                       ? std::make_unique<CheckpointCache>(
                             options.checkpointCapacity, kCacheShards)
                       : nullptr)
{
    runner_.setThreadPool(&pool_);
    if (profileCache_ != nullptr) {
        runner_.setProfileCache(profileCache_.get());
        // Memoized (canonical) characterization produces different grid
        // content than the historical warm-state path, so the mode must
        // be part of every grid's identity: mix a tag plus the warmup
        // length into the config fingerprint so memoized and
        // non-memoized grids never alias in the grid cache, the
        // analysis cache, or a snapshot store.
        configFingerprint_ = fnv1aMixWord(
            fnv1aMixWord(configFingerprint_, 0x70726f66696c6531ull),
            config_.sampler.profileWarmupInstructions);
    }
}

GridKey
CharacterizationService::keyFor(const WorkloadProfile &workload,
                                const SettingsSpace &space) const
{
    return GridKey{workload.fingerprint(), space.fingerprint(),
                   configFingerprint_};
}

std::shared_ptr<const MeasuredGrid>
CharacterizationService::grid(const WorkloadProfile &workload,
                              const SettingsSpace &space)
{
    bool cache_hit = false;
    return gridFor(keyFor(workload, space), workload, space, cache_hit);
}

std::shared_ptr<const MeasuredGrid>
CharacterizationService::grid(const WorkloadProfile &workload,
                              const SettingsSpace &space,
                              bool &cache_hit)
{
    return gridFor(keyFor(workload, space), workload, space, cache_hit);
}

void
CharacterizationService::primeGrid(const GridKey &key,
                                   std::shared_ptr<const MeasuredGrid> grid)
{
    cache_.insert(key, std::move(grid));
}

void
CharacterizationService::primeAnalysis(
    const AnalysisKey &key, std::shared_ptr<const AnalysisResult> result)
{
    analysisCache_.insert(key, std::move(result));
}

std::shared_ptr<const MeasuredGrid>
CharacterizationService::gridFor(const GridKey &key,
                                 const WorkloadProfile &workload,
                                 const SettingsSpace &space,
                                 bool &cache_hit)
{
    std::shared_ptr<const MeasuredGrid> cached = findGrid(key);
    cache_hit = cached != nullptr;
    return cache_hit ? cached : buildGrid(key, workload, space);
}

std::shared_ptr<const MeasuredGrid>
CharacterizationService::findGrid(const GridKey &key)
{
    std::shared_ptr<const MeasuredGrid> cached = cache_.find(key);
    if (cached != nullptr)
        obs::traceInstant("svc.cache_hit");
    return cached;
}

std::shared_ptr<const MeasuredGrid>
CharacterizationService::buildGrid(const GridKey &key,
                                   const WorkloadProfile &workload,
                                   const SettingsSpace &space)
{
    const obs::Clock::time_point build_start = obs::metricsNow();
    obs::TraceSpan build_span("svc.grid_build");
    auto grid =
        std::make_shared<const MeasuredGrid>(runner_.run(workload, space));
    build_span.end();
    serviceMetrics().buildNs.record(obs::elapsedNs(build_start));
    serviceMetrics().gridBuilds.add(1);
    cache_.insert(key, grid);
    return grid;
}

TuningResult
CharacterizationService::analyze(const TuningRequest &request,
                                 std::uint64_t grid_digest,
                                 std::shared_ptr<const MeasuredGrid> grid,
                                 bool cache_hit)
{
    const obs::Clock::time_point analyze_start = obs::metricsNow();
    obs::TraceSpan analyze_span("svc.analyze");
    TuningResult result;
    result.budget = request.budget;
    result.threshold = request.threshold;
    result.cacheHit = cache_hit;

    const AnalysisKey key{grid_digest, request.budget, request.threshold};
    std::shared_ptr<const AnalysisResult> cached =
        analysisCache_.find(key);
    if (cached == nullptr) {
        const std::size_t samples = grid->sampleCount();

        // Streaming resume: probe the checkpoint store for the longest
        // analyzed content prefix of this grid.  A grown workload
        // misses the result cache (its full fingerprint changed) but
        // shares every prefix digest with its past.
        std::vector<AnalysisKey> prefix_keys;
        std::shared_ptr<const AnalysisCheckpoint> resumed;
        if (checkpoints_ != nullptr) {
            prefix_keys.reserve(samples);
            for (std::size_t len = samples; len >= 1; --len)
                prefix_keys.push_back(AnalysisKey{
                    grid->prefixDigest(len), request.budget,
                    request.threshold});
            resumed = checkpoints_->find(prefix_keys);
        }

        // One path: extend a copy of the resumed checkpoint, or an
        // empty one, over the samples it lacks with a tail-range
        // finder, the fill fanned over the pool (parallelFor is
        // nest-safe, so this is fine from a daemon group task).
        auto checkpoint = std::make_shared<AnalysisCheckpoint>();
        if (resumed != nullptr) {
            obs::traceInstant("svc.analysis_resumed");
            *checkpoint = *resumed;
            result.analysisResumed = true;
            result.resumedFromSamples = resumed->samples;
        } else {
            checkpoint->budget = request.budget;
            checkpoint->threshold = request.threshold;
        }
        InefficiencyAnalysis analysis(*grid);
        OptimalSettingsFinder finder(analysis);
        ClusterFinder cluster_finder(finder, checkpoint->samples);
        IncrementalAnalyzer::extend(*checkpoint, cluster_finder, samples,
                                    &pool_);

        auto fresh = std::make_shared<AnalysisResult>();
        fresh->optimal = checkpoint->optimal;
        fresh->clusters.reserve(samples);
        for (std::size_t s = 0; s < samples; ++s)
            fresh->clusters.push_back(
                IncrementalAnalyzer::materializeCluster(
                    checkpoint->optimal[s], checkpoint->masks[s]));
        fresh->regions = checkpoint->regions.regions(grid->space());
        if (checkpoints_ != nullptr)
            checkpoints_->insert(prefix_keys.front(),
                                 std::move(checkpoint));
        analysisCache_.insert(key, fresh);
        cached = std::move(fresh);
    } else {
        obs::traceInstant("svc.analysis_cache_hit");
        result.analysisCacheHit = true;
    }

    result.optimal = SharedVector<OptimalChoice>(cached, cached->optimal);
    result.clusters =
        SharedVector<PerformanceCluster>(cached, cached->clusters);
    result.regions = SharedVector<StableRegion>(cached, cached->regions);
    result.analysis = std::move(cached);
    result.grid = std::move(grid);
    serviceMetrics().analyzeNs.add(obs::elapsedNs(analyze_start));
    return result;
}

TuningResult
CharacterizationService::submit(const TuningRequest &request)
{
    obs::ScopedTimer submit_timer(serviceMetrics().submitNs);
    obs::TraceSpan submit_span("svc.submit");
    serviceMetrics().requests.add(1);
    obs::MetricsRegistry::global()
        .counter("svc.service.requests",
                 {{"wl", request.workload.name()}})
        .add(1);
    bool cache_hit = false;
    const GridKey key = keyFor(request.workload, request.space);
    auto grid = gridFor(key, request.workload, request.space, cache_hit);
    return analyze(request, key.combined(), std::move(grid), cache_hit);
}

} // namespace svc
} // namespace mcdvfs

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
    obs::Counter coalescedWaits;
    obs::Counter analyzeNs;
    obs::Gauge inflightBuilds;
    obs::Histogram submitNs;
    obs::Histogram buildNs;

    ServiceMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const auto latency = obs::MetricsRegistry::latencyBucketsNs();
        requests = reg.counter("svc.service.requests");
        gridBuilds = reg.counter("svc.service.grid_builds");
        coalescedWaits = reg.counter("svc.service.coalesced_waits");
        analyzeNs = reg.counter("svc.service.analyze_ns");
        inflightBuilds = reg.gauge("svc.service.inflight_builds");
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

/** Lock granularity of every cache the service owns. */
constexpr std::size_t kCacheShards = 8;

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
    cache_hit = false;
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
    if (auto cached = findGrid(key)) {
        cache_hit = true;
        return cached;
    }
    return buildGrid(key, workload, space, cache_hit);
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
                                   const SettingsSpace &space,
                                   bool &coalesced)
{
    // Either claim the build or coalesce with whoever is already
    // characterizing this key.  The builder runs the build on its own
    // thread (never queued behind a waiter), so waiting on the shared
    // future cannot deadlock, even from a pool worker.
    std::promise<std::shared_ptr<const MeasuredGrid>> promise;
    std::shared_future<std::shared_ptr<const MeasuredGrid>> watch;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            watch = it->second;
        } else {
            inflight_.emplace(key, promise.get_future().share());
        }
    }
    if (watch.valid()) {
        serviceMetrics().coalescedWaits.add(1);
        obs::TraceSpan wait_span("svc.coalesced_wait");
        coalesced = true;
        return watch.get();
    }

    serviceMetrics().inflightBuilds.add(1);
    try {
        const obs::Clock::time_point build_start = obs::metricsNow();
        obs::TraceSpan build_span("svc.grid_build");
        auto grid = std::make_shared<const MeasuredGrid>(
            runner_.run(workload, space));
        build_span.end();
        serviceMetrics().buildNs.record(obs::elapsedNs(build_start));
        serviceMetrics().gridBuilds.add(1);
        cache_.insert(key, grid);
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflight_.erase(key);
        }
        serviceMetrics().inflightBuilds.add(-1);
        promise.set_value(grid);
        coalesced = false;
        return grid;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflight_.erase(key);
        }
        serviceMetrics().inflightBuilds.add(-1);
        promise.set_exception(std::current_exception());
        throw;
    }
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

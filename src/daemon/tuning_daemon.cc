#include "daemon/tuning_daemon.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mcdvfs
{
namespace daemon
{

namespace
{

/**
 * Process-wide daemon metrics with no per-daemon twin (all instances
 * share them); the counted events are each daemon's OwnedCounters.
 */
struct DaemonMetrics
{
    obs::Gauge queueDepth;
    obs::Counter submitted;
    /** Total of the daemon.shed{reason} series the daemons own. */
    obs::Counter shed;
    obs::Histogram queueWaitNs;
    obs::Histogram gridStageNs;
    obs::Histogram analysisStageNs;
    obs::Histogram requestNs;

    DaemonMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const auto latency = obs::MetricsRegistry::latencyBucketsNs();
        queueDepth = reg.gauge("daemon.queue_depth");
        submitted = reg.counter("daemon.submitted");
        shed = reg.counter("daemon.shed");
        queueWaitNs = reg.histogram("daemon.queue_wait_ns", latency);
        gridStageNs = reg.histogram("daemon.grid_stage_ns", latency);
        analysisStageNs =
            reg.histogram("daemon.analysis_stage_ns", latency);
        requestNs = reg.histogram("daemon.request_ns", latency);
    }
};

DaemonMetrics &
daemonMetrics()
{
    static DaemonMetrics metrics;
    return metrics;
}

/**
 * Process-wide request id allocator: unique across daemon instances
 * (a warm restart in the same process keeps extending the same trace
 * flow id space, so flows never collide).
 */
std::uint64_t
nextRequestId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None:
        return "none";
    case ShedReason::QueueFull:
        return "queue-full";
    case ShedReason::Draining:
        return "draining";
    }
    return "unknown";
}

TuningDaemon::TuningDaemon(const SystemConfig &config,
                           const Options &options)
    : config_(config), options_(options),
      service_(config, options.service)
{
    if (options_.queueCapacity == 0)
        fatal("tuning daemon: queue capacity must be >= 1");
    if (options_.maxBatch == 0)
        fatal("tuning daemon: max batch must be >= 1");
    if (!options_.storeDir.empty()) {
        store_ = std::make_unique<SnapshotStore>(options_.storeDir);
        warmLoad();
    }
    batcher_ = std::thread([this] { batcherLoop(); });
}

TuningDaemon::~TuningDaemon()
{
    drain();
}

void
TuningDaemon::warmLoad()
{
    obs::TraceSpan warm_span("daemon.warm_load");
    for (SnapshotStore::GridEntry &entry : store_->loadAllGrids()) {
        service_.primeGrid(entry.key, std::move(entry.grid));
        ++warmGrids_;
    }
    for (SnapshotStore::AnalysisEntry &entry :
         store_->loadAllAnalyses()) {
        service_.primeAnalysis(entry.key, std::move(entry.result));
        ++warmAnalyses_;
    }
    if (warmGrids_ + warmAnalyses_ > 0) {
        inform("tuning daemon: warm-loaded ", warmGrids_,
               " grid and ", warmAnalyses_,
               " analysis snapshots from '", store_->directory(), "'");
    }
}

void
TuningDaemon::shed(std::promise<DaemonResponse> promise,
                   ShedReason reason)
{
    DaemonResponse response;
    response.shed = reason;
    promise.set_value(std::move(response));
}

std::future<DaemonResponse>
TuningDaemon::submit(const svc::TuningRequest &request)
{
    std::promise<DaemonResponse> promise;
    std::future<DaemonResponse> future = promise.get_future();

    // Request scope starts here: the id doubles as the trace flow id
    // and the journal's request_id, so one fleet request is
    // reconstructible across threads and artifacts.
    const std::uint64_t request_id = nextRequestId();
    // The journal/trace class id: FNV-1a of the workload class name.
    const std::uint64_t class_id =
        fnv1aString(kFnvOffsetBasis, request.workload.name());
    obs::ScopedTraceContext context(
        obs::TraceContext{request_id, class_id});
    daemonMetrics().submitted.add(1);

    ShedReason reason = ShedReason::None;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_) {
            reason = ShedReason::Draining;
        } else if (queue_.size() >= options_.queueCapacity) {
            reason = ShedReason::QueueFull;
        } else {
            queue_.push_back(Pending{request, std::move(promise),
                                     obs::metricsNow(), request_id,
                                     class_id});
            daemonMetrics().queueDepth.set(
                static_cast<std::int64_t>(queue_.size()));
        }
    }

    if (reason != ShedReason::None) {
        daemonMetrics().shed.add(1);
        if (reason == ShedReason::Draining) {
            shedDraining_.add();
            obs::traceInstant("daemon.shed_draining", request_id);
        } else {
            shedQueueFull_.add();
            obs::traceInstant("daemon.shed_queue_full", request_id);
        }
        if (journal_ != nullptr) {
            obs::RequestRecord record;
            record.requestId = request_id;
            record.classId = class_id;
            record.workload = request.workload.name();
            record.budget = request.budget;
            record.threshold = request.threshold;
            record.shed = true;
            journal_->appendRequest(std::move(record));
        }
        shed(std::move(promise), reason);
        return future;
    }

    admitted_.add();
    obs::traceInstant("daemon.submit", request_id);
    wake_.notify_one();
    return future;
}

void
TuningDaemon::batcherLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return draining_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // draining and nothing left to dispatch
            const std::size_t take =
                std::min(options_.maxBatch, queue_.size());
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            daemonMetrics().queueDepth.set(
                static_cast<std::int64_t>(queue_.size()));
        }
        dispatchBatch(std::move(batch));
    }
}

void
TuningDaemon::dispatchBatch(std::vector<Pending> batch)
{
    obs::TraceSpan batch_span("daemon.dispatch_batch", batch.size());
    batches_.add();

    // Coalesce by grid identity: every group characterizes its grid
    // once; distinct groups run as independent pool tasks.
    std::unordered_map<svc::GridKey, std::shared_ptr<std::vector<Pending>>,
                       exec::DigestHash>
        groups;
    for (Pending &pending : batch) {
        std::shared_ptr<std::vector<Pending>> &members =
            groups[service_.keyFor(pending.request.workload,
                                   pending.request.space)];
        if (members == nullptr) {
            members = std::make_shared<std::vector<Pending>>();
        } else {
            coalesced_.add();
        }
        members->push_back(std::move(pending));
    }

    std::lock_guard<std::mutex> lock(inflightMutex_);
    // Reap finished groups so the in-flight list stays small.
    inflight_.erase(
        std::remove_if(inflight_.begin(), inflight_.end(),
                       [](std::future<void> &f) {
                           return f.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready;
                       }),
        inflight_.end());
    for (const auto &[key, members] : groups) {
        inflight_.push_back(service_.pool().submit(
            [this, key = key, members = members] {
                runGroup(key, members);
            }));
    }
}

void
TuningDaemon::runGroup(const svc::GridKey &key,
                       std::shared_ptr<std::vector<Pending>> members)
{
    obs::TraceSpan group_span("daemon.run_group", members->size());

    // Grid stage: one characterization (or cache hit) per group,
    // attributed to the first member's request flow.  A failure here
    // fails every member: they all need this grid.
    const obs::Clock::time_point grid_start = obs::metricsNow();
    bool grid_hit = false;
    std::shared_ptr<const MeasuredGrid> grid;
    std::uint64_t grid_ns = 0;
    try {
        {
            const Pending &lead = members->front();
            obs::ScopedTraceContext grid_context(
                obs::TraceContext{lead.requestId, lead.classId});
            grid = service_.grid(lead.request.workload,
                                 lead.request.space, grid_hit);
        }
        grid_ns = obs::elapsedNs(grid_start);
        daemonMetrics().gridStageNs.record(grid_ns);
        if (!grid_hit && store_ != nullptr)
            store_->storeGrid(key, *grid);
    } catch (...) {
        failed_.add(members->size());
        for (Pending &pending : *members)
            pending.promise.set_exception(std::current_exception());
        return;
    }

    // Analysis stage: one per member (later members share the grid, so
    // their grid stage is a hit by construction).  A member's failure
    // (an invalid budget or threshold, say) resolves only that member.
    const std::uint64_t digest = key.combined();
    for (std::size_t i = 0; i < members->size(); ++i) {
        Pending &pending = (*members)[i];
        try {
            // Re-enter the member's request scope on this pool
            // thread: svc/analysis/arbiter spans and journal fills
            // below all stamp its request id.
            obs::ScopedTraceContext member_context(
                obs::TraceContext{pending.requestId, pending.classId});
            const std::uint64_t queue_ns =
                obs::elapsedNs(pending.submittedAt);
            daemonMetrics().queueWaitNs.record(queue_ns);

            const obs::Clock::time_point analysis_start =
                obs::metricsNow();
            svc::TuningResult result = service_.analyze(
                pending.request, digest, grid, i == 0 ? grid_hit : true);
            const std::uint64_t analysis_ns =
                obs::elapsedNs(analysis_start);
            daemonMetrics().analysisStageNs.record(analysis_ns);
            if (result.analysisResumed)
                analysisResumed_.add();

            if (!result.analysisCacheHit && store_ != nullptr) {
                store_->storeAnalysis(
                    svc::AnalysisKey{digest, pending.request.budget,
                                     pending.request.threshold},
                    *result.analysis);
            }

            if (journal_ != nullptr) {
                obs::RequestRecord record;
                record.requestId = pending.requestId;
                record.classId = pending.classId;
                record.workload = pending.request.workload.name();
                record.budget = pending.request.budget;
                record.threshold = pending.request.threshold;
                record.cacheHit = result.cacheHit;
                record.analysisCacheHit = result.analysisCacheHit;
                record.analysisResumed = result.analysisResumed;
                record.queueWaitNs = queue_ns;
                record.requestNs = obs::elapsedNs(pending.submittedAt);
                record.regions = result.regions.size();
                journal_->appendRequest(std::move(record));
            }

            DaemonResponse response;
            response.result = std::move(result);
            response.queueNs = queue_ns;
            response.gridNs = grid_ns;
            response.analysisNs = analysis_ns;
            response.totalNs = obs::elapsedNs(pending.submittedAt);
            daemonMetrics().requestNs.record(response.totalNs);
            completed_.add();
            obs::MetricsRegistry::global()
                .counter("daemon.completed",
                         {{"wl", pending.request.workload.name()}})
                .add(1);
            pending.promise.set_value(std::move(response));
        } catch (...) {
            // The caller sees the exception through its future.
            failed_.add();
            pending.promise.set_exception(std::current_exception());
        }
    }
}

void
TuningDaemon::drain()
{
    std::lock_guard<std::mutex> drain_lock(drainMutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
    }
    wake_.notify_all();
    if (batcher_.joinable())
        batcher_.join();

    // Every dispatched group must finish before the pool drains (a
    // drained pool rejects the service's internal batch submits).
    std::vector<std::future<void>> inflight;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight.swap(inflight_);
    }
    for (std::future<void> &future : inflight)
        future.get();

    if (!service_.pool().draining())
        service_.pool().drain();
}

std::size_t
TuningDaemon::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

DaemonStats
TuningDaemon::stats() const
{
    DaemonStats stats;
    stats.admitted = admitted_.value();
    stats.shedQueueFull = shedQueueFull_.value();
    stats.shedDraining = shedDraining_.value();
    stats.batches = batches_.value();
    stats.coalesced = coalesced_.value();
    stats.completed = completed_.value();
    stats.failed = failed_.value();
    stats.analysisResumed = analysisResumed_.value();
    stats.warmGrids = warmGrids_;
    stats.warmAnalyses = warmAnalyses_;
    return stats;
}

} // namespace daemon
} // namespace mcdvfs

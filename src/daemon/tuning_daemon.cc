#include "daemon/tuning_daemon.hh"

#include <algorithm>
#include <ctime>
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
    obs::Counter batcherCpuNs;
    obs::Counter batcherWakes;
    obs::Counter buildCpuNs;

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
        batcherCpuNs = reg.counter("daemon.batcher_cpu_ns");
        batcherWakes = reg.counter("daemon.batcher_wakes");
        buildCpuNs = reg.counter("daemon.build_cpu_ns");
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

/**
 * CPU time of the calling thread (0 when metrics are compiled out).
 * A system call, so the batcher reads it per batch, never per request.
 */
std::uint64_t
threadCpuNs()
{
    if constexpr (!obs::kMetricsEnabled)
        return 0;
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * Adds the calling thread's CPU time from construction to destruction
 * to daemon.build_cpu_ns: a build task's, whichever way it ends.
 */
class BuildCpuScope
{
  public:
    BuildCpuScope() = default;
    BuildCpuScope(const BuildCpuScope &) = delete;
    BuildCpuScope &operator=(const BuildCpuScope &) = delete;
    ~BuildCpuScope()
    {
        daemonMetrics().buildCpuNs.add(threadCpuNs() - start_);
    }

  private:
    std::uint64_t start_ = threadCpuNs();
};

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
    : options_(options), service_(config, options.service)
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
    // Read only what the caches can hold: the newest files of each
    // kind, loaded over the pool while this thread takes part.
    SnapshotStore::Loaded loaded = store_->load(
        SnapshotStore::newest(store_->list(),
                              options_.service.cacheCapacity,
                              options_.service.analysisCapacity),
        &service_.pool());
    // Oldest first, so the newest entry is the most recently used and
    // the caches do not depend on how the load was scheduled.
    for (auto it = loaded.grids.rbegin(); it != loaded.grids.rend(); ++it)
        service_.primeGrid(it->key, std::move(it->grid));
    for (auto it = loaded.analyses.rbegin(); it != loaded.analyses.rend();
         ++it)
        service_.primeAnalysis(it->key, std::move(it->result));
    warmGrids_ = service_.cacheStats().entries;
    warmAnalyses_ = service_.analysisStats().entries;
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

    // The copy shares the request's workload and space blocks, so it
    // allocates nothing; the batcher groups by the key computed here.
    Pending pending{request,
                    service_.keyFor(request.workload, request.space),
                    std::move(promise), obs::metricsNow(), request_id,
                    class_id};
    ShedReason reason = ShedReason::None;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_) {
            reason = ShedReason::Draining;
        } else if (queue_.size() >= options_.queueCapacity) {
            reason = ShedReason::QueueFull;
        } else {
            queue_.push_back(std::move(pending));
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
        shed(std::move(pending.promise), reason);
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
    // CPU accounting: the thread clock is read when the batcher leaves
    // a wait and after each batch, never per group or per request.  A
    // wake is a batch started from idle: the first one, and every one
    // after a wait.
    std::uint64_t cpu_mark = 0;
    bool woke = true;
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!draining_ && queue_.empty()) {
                wake_.wait(lock);
                woke = true;
            }
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
        if (woke) {
            daemonMetrics().batcherWakes.add(1);
            cpu_mark = threadCpuNs();
            woke = false;
        }
        dispatchBatch(std::move(batch));
        const std::uint64_t cpu_now = threadCpuNs();
        daemonMetrics().batcherCpuNs.add(cpu_now - cpu_mark);
        cpu_mark = cpu_now;
    }
}

void
TuningDaemon::dispatchBatch(std::vector<Pending> batch)
{
    obs::TraceSpan batch_span("daemon.dispatch_batch", batch.size());
    batches_.add();

    // Coalesce by grid identity: every group fetches or builds its
    // grid once.
    struct Group
    {
        std::vector<Pending> members;
        /** The group's grid when the probe found it cached. */
        std::shared_ptr<const MeasuredGrid> grid;
        std::uint64_t gridNs = 0;
    };
    std::unordered_map<svc::GridKey, Group, exec::DigestHash> groups;
    for (Pending &pending : batch) {
        Group &group = groups[pending.key];
        if (!group.members.empty())
            coalesced_.add();
        group.members.push_back(std::move(pending));
    }

    // A group whose grid this daemon is already building joins that
    // build; its lead is the one member not counted above.  Every
    // other group probes its grid once, under its first member's
    // request flow; a group that must build becomes a pool task,
    // submitted before any cached group runs, so distinct builds
    // characterize concurrently and none waits behind warm work.  The
    // task's future is dropped: drain() waits on the pool itself.
    for (auto &[key, group] : groups) {
        {
            std::lock_guard<std::mutex> lock(buildingMutex_);
            const auto it = building_.find(key);
            if (it != building_.end()) {
                coalesced_.add();
                for (Pending &pending : group.members)
                    it->second.push_back(std::move(pending));
                continue;
            }
        }
        const obs::Clock::time_point grid_start = obs::metricsNow();
        try {
            const Pending &lead = group.members.front();
            obs::ScopedTraceContext grid_context(
                obs::TraceContext{lead.requestId, lead.classId});
            group.grid = service_.findGrid(key);
        } catch (...) {
            failGroup(group.members, std::current_exception());
            continue;
        }
        group.gridNs = obs::elapsedNs(grid_start);
        if (group.grid != nullptr) {
            daemonMetrics().gridStageNs.record(group.gridNs);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(buildingMutex_);
            building_.emplace(key, std::move(group.members));
        }
        try {
            service_.pool().submit([this, key = key, grid_ns = group.gridNs] {
                runBuild(key, grid_ns);
            });
        } catch (...) {
            std::vector<Pending> members = takeBuildMembers(key, true);
            failGroup(members, std::current_exception());
        }
    }

    for (auto &[key, group] : groups) {
        if (group.grid == nullptr)
            continue;
        obs::TraceSpan group_span("daemon.run_group", group.members.size());
        runGroup(key.combined(), group.members, group.grid, true,
                 group.gridNs);
    }
}

void
TuningDaemon::failGroup(std::vector<Pending> &members,
                        std::exception_ptr error)
{
    failed_.add(members.size());
    for (Pending &pending : members)
        pending.promise.set_exception(error);
}

std::vector<TuningDaemon::Pending>
TuningDaemon::takeBuildMembers(const svc::GridKey &key, bool release)
{
    std::lock_guard<std::mutex> lock(buildingMutex_);
    const auto it = building_.find(key);
    MCDVFS_ASSERT(it != building_.end(), "no build in flight for the key");
    std::vector<Pending> members;
    members.swap(it->second);
    if (release)
        building_.erase(it);
    return members;
}

std::shared_ptr<const MeasuredGrid>
TuningDaemon::buildStage(const svc::GridKey &key, const Pending &lead,
                         bool probe, bool &grid_hit, std::uint64_t &grid_ns)
{
    // Attributed to the first member's request flow.
    const obs::Clock::time_point start = obs::metricsNow();
    std::shared_ptr<const MeasuredGrid> grid;
    {
        obs::ScopedTraceContext grid_context(
            obs::TraceContext{lead.requestId, lead.classId});
        if (probe)
            grid = service_.findGrid(key);
        grid_hit = grid != nullptr;
        if (grid == nullptr)
            grid = service_.buildGrid(key, lead.request.workload,
                                      lead.request.space);
    }
    grid_ns += obs::elapsedNs(start);
    daemonMetrics().gridStageNs.record(grid_ns);
    if (!grid_hit && store_ != nullptr)
        store_->storeGrid(key, *grid);
    return grid;
}

void
TuningDaemon::runBuild(const svc::GridKey &key, std::uint64_t grid_ns)
{
    const BuildCpuScope cpu;
    const std::uint64_t digest = key.combined();
    std::shared_ptr<const MeasuredGrid> grid;
    // Two takes: the members waiting when the task starts, then, with
    // the key released, those that joined while it ran.  Releasing it
    // ends the task even under steady traffic on its key, and later
    // batches probe again, so a built grid's later traffic runs on the
    // batcher.  An identical joiner finds the first take's analysis
    // cached.
    for (const bool release : {false, true}) {
        std::vector<Pending> members = takeBuildMembers(key, release);
        if (members.empty())
            continue;
        obs::TraceSpan group_span("daemon.run_group", members.size());
        bool grid_hit = grid != nullptr;
        if (grid == nullptr) {
            // The first take builds.  If that failed, the joiners were
            // not part of it: they probe and build as their own group,
            // as a later batch's would.
            try {
                grid = buildStage(key, members.front(), release, grid_hit,
                                  grid_ns);
            } catch (...) {
                failGroup(members, std::current_exception());
                grid_ns = 0;
                continue;
            }
        }
        runGroup(digest, members, grid, grid_hit, grid_ns);
    }
}

void
TuningDaemon::runGroup(std::uint64_t digest, std::vector<Pending> &members,
                       const std::shared_ptr<const MeasuredGrid> &grid,
                       bool lead_hit, std::uint64_t grid_ns)
{
    // One analysis per member (later members share the grid, so their
    // grid stage is a hit by construction).  A member's failure (an
    // invalid budget or threshold, say) resolves only that member.
    // The daemon.completed{wl} series is looked up again only when a
    // member's workload name differs from the previous member's.
    obs::Counter completed_series;
    const std::string *series_name = nullptr;
    for (std::size_t i = 0; i < members.size(); ++i) {
        Pending &pending = members[i];
        try {
            // Re-enter the member's request scope on this thread:
            // svc/analysis/arbiter spans and journal fills below all
            // stamp its request id.
            obs::ScopedTraceContext member_context(
                obs::TraceContext{pending.requestId, pending.classId});
            const std::uint64_t queue_ns =
                obs::elapsedNs(pending.submittedAt);
            daemonMetrics().queueWaitNs.record(queue_ns);

            const obs::Clock::time_point analysis_start =
                obs::metricsNow();
            svc::TuningResult result = service_.analyze(
                pending.request, digest, grid, i == 0 ? lead_hit : true);
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

            const std::string &name = pending.request.workload.name();
            if (series_name == nullptr || name != *series_name) {
                completed_series = obs::MetricsRegistry::global().counter(
                    "daemon.completed", {{"wl", name}});
                series_name = &name;
            }

            DaemonResponse response;
            response.result = std::move(result);
            response.queueNs = queue_ns;
            response.gridNs = grid_ns;
            response.analysisNs = analysis_ns;
            response.totalNs = obs::elapsedNs(pending.submittedAt);
            daemonMetrics().requestNs.record(response.totalNs);
            completed_.add();
            completed_series.add(1);
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

    // The batcher has submitted its last build task; the pool's drain
    // returns once none is queued or running.
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

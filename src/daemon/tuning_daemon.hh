/**
 * @file
 * Long-running fleet tuning daemon: an async request pipeline over
 * svc::CharacterizationService.
 *
 * The paper's §VII tuner is a per-device loop; this daemon is the
 * fleet-scale serving shape of the same computation.  Requests flow
 * through four stages:
 *
 *   submit() --> bounded queue --> batcher --> grid stage --> analysis
 *               (admission       (coalesce    (GridCache /   stage
 *                control,         by grid      build over    (Analysis-
 *                load-shed)       fingerprint) the pool)      Cache)
 *
 *  - Admission control: the submit queue is bounded; once its depth
 *    reaches queueCapacity, new requests are rejected immediately
 *    with a reason (the future still resolves — callers never hang),
 *    counted in daemon.shed{reason}.  A saturated daemon degrades by
 *    shedding load, not by growing an unbounded backlog.
 *  - Batching/coalescing: a dedicated batcher thread drains up to
 *    maxBatch requests at a time and groups them by grid fingerprint
 *    (workload, space, config); each group characterizes its grid once
 *    and fans the per-request analyses from it.  Groups run as
 *    independent pool tasks, so distinct grids characterize
 *    concurrently.  This is the library's one batch loop: the service
 *    underneath answers one request at a time.
 *  - Persistence: with a SnapshotStore attached, every fresh grid
 *    build and fresh analysis is written through to the store (best
 *    effort: a failed write is counted and the request still
 *    served), and construction warm-loads every stored snapshot into
 *    the caches — a restarted daemon answers its first requests from
 *    the store instead of recharacterizing the fleet (snapshots
 *    round-trip bit-identically, so warm results equal cold results
 *    exactly).
 *  - Shutdown: drain() stops admission (Draining sheds), finishes the
 *    queue and every in-flight batch, then drains the pool — no
 *    accepted request is ever dropped: after drain(), admitted ==
 *    completed + failed.
 *
 * Metrics live under the daemon.* namespace (docs/OBSERVABILITY.md).
 */

#ifndef MCDVFS_DAEMON_TUNING_DAEMON_HH
#define MCDVFS_DAEMON_TUNING_DAEMON_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/snapshot_store.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "svc/characterization_service.hh"

namespace mcdvfs
{
namespace daemon
{

/** Why a request was rejected instead of tuned. */
enum class ShedReason
{
    None = 0,     ///< not shed: the response carries a result
    QueueFull,    ///< queue depth at queueCapacity
    Draining,     ///< daemon is shutting down
};

/** Human-readable label of a shed reason. */
const char *shedReasonName(ShedReason reason);

/** The daemon's answer to one submitted request. */
struct DaemonResponse
{
    /** Valid (grid != nullptr) only when shed == None. */
    svc::TuningResult result;
    ShedReason shed = ShedReason::None;
    /** Nanoseconds from submit() to queue exit (0 when shed). */
    std::uint64_t queueNs = 0;
    /** Nanoseconds in the grid stage (cache lookup or build). */
    std::uint64_t gridNs = 0;
    /** Nanoseconds in the analysis stage. */
    std::uint64_t analysisNs = 0;
    /** Nanoseconds from submit() to completion. */
    std::uint64_t totalNs = 0;

    bool ok() const { return shed == ShedReason::None; }
};

/** Sizing and policy knobs of a TuningDaemon. */
struct DaemonOptions
{
    /** Service sizing (pool workers, cache capacities). */
    svc::ServiceOptions service;
    /**
     * Hard bound on queued (admitted, not yet dispatched) requests;
     * admission control sheds at this depth.
     */
    std::size_t queueCapacity = 4096;
    /** Most requests the batcher dispatches as one batch. */
    std::size_t maxBatch = 128;
    /**
     * Snapshot store directory; empty disables persistence.  When set,
     * construction warm-loads every stored snapshot and every fresh
     * grid/analysis is written through.
     */
    std::string storeDir;
};

/**
 * Counters summarizing a daemon's lifetime.  Each counted field is an
 * obs::OwnedCounter: this daemon's own count of its daemon.* series
 * (admitted, batches, coalesced, completed, failed, analysis_resumed,
 * shed{reason=queue_full|draining}).
 */
struct DaemonStats
{
    std::uint64_t admitted = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDraining = 0;
    std::uint64_t batches = 0;
    /** Requests that shared a batch group with an earlier request. */
    std::uint64_t coalesced = 0;
    std::uint64_t completed = 0;
    /** Admitted requests whose future holds an exception. */
    std::uint64_t failed = 0;
    /**
     * Analyses that resumed from an incremental checkpoint of a
     * shorter content prefix instead of recomputing the full history.
     */
    std::uint64_t analysisResumed = 0;
    /** Grid snapshots warm-loaded at construction. */
    std::uint64_t warmGrids = 0;
    /** Analysis snapshots warm-loaded at construction. */
    std::uint64_t warmAnalyses = 0;
};

/** The long-running server loop (one instance per process, usually). */
class TuningDaemon
{
  public:
    using Options = DaemonOptions;

    /**
     * Build the service, warm-load the snapshot store (when
     * configured), and start the batcher thread.  The daemon accepts
     * requests as soon as the constructor returns.
     */
    explicit TuningDaemon(
        const SystemConfig &config = SystemConfig::paperDefault(),
        const Options &options = Options());

    /** Drains (if not already drained) and stops the batcher. */
    ~TuningDaemon();

    TuningDaemon(const TuningDaemon &) = delete;
    TuningDaemon &operator=(const TuningDaemon &) = delete;

    /**
     * Submit one request.  Never blocks on the pipeline and never
     * throws for capacity reasons: a shed request resolves its future
     * immediately with the shed reason filled in.
     */
    std::future<DaemonResponse> submit(const svc::TuningRequest &request);

    /**
     * Graceful shutdown: stop admitting (subsequent submits shed with
     * Draining), finish every queued and in-flight request, then drain
     * the pool.  Idempotent.
     */
    void drain();

    /** Requests admitted but not yet dispatched to the pool. */
    std::size_t queueDepth() const;

    DaemonStats stats() const;
    svc::CharacterizationService &service() { return service_; }
    SnapshotStore *store() { return store_.get(); }

    /**
     * Attach a journal: every request (served or shed) appends one
     * RequestRecord carrying its request/class ids, stage latencies
     * and cache outcomes.  Set before traffic; the journal must
     * outlive the daemon.
     */
    void setJournal(obs::DecisionJournal *journal) { journal_ = journal; }

  private:
    /** One admitted request waiting in the submit queue. */
    struct Pending
    {
        svc::TuningRequest request;
        std::promise<DaemonResponse> promise;
        obs::Clock::time_point submittedAt;
        /** Process-unique request id (also the trace flow id). */
        std::uint64_t requestId = 0;
        /** FNV-1a hash of the workload class name. */
        std::uint64_t classId = 0;
    };

    void warmLoad();
    void batcherLoop();
    /** Dispatch one drained batch as per-grid-group pool tasks. */
    void dispatchBatch(std::vector<Pending> batch);
    /** Grid stage + analysis stage for one coalesced group. */
    void runGroup(const svc::GridKey &key,
                  std::shared_ptr<std::vector<Pending>> members);
    /** Resolve a request immediately with a shed response. */
    static void shed(std::promise<DaemonResponse> promise,
                     ShedReason reason);

    SystemConfig config_;
    Options options_;
    svc::CharacterizationService service_;
    std::unique_ptr<SnapshotStore> store_;
    obs::DecisionJournal *journal_ = nullptr;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<Pending> queue_;
    bool draining_ = false;

    /** In-flight batch-group futures, reaped as they complete. */
    std::mutex inflightMutex_;
    std::vector<std::future<void>> inflight_;

    /** Serializes drain() callers (drain is idempotent). */
    std::mutex drainMutex_;

    obs::OwnedCounter admitted_{"daemon.admitted"};
    obs::OwnedCounter shedQueueFull_{"daemon.shed",
                                     {{"reason", "queue_full"}}};
    obs::OwnedCounter shedDraining_{"daemon.shed", {{"reason", "draining"}}};
    obs::OwnedCounter batches_{"daemon.batches"};
    obs::OwnedCounter coalesced_{"daemon.coalesced"};
    obs::OwnedCounter completed_{"daemon.completed"};
    obs::OwnedCounter failed_{"daemon.failed"};
    obs::OwnedCounter analysisResumed_{"daemon.analysis_resumed"};
    std::uint64_t warmGrids_ = 0;
    std::uint64_t warmAnalyses_ = 0;

    std::thread batcher_;
};

} // namespace daemon
} // namespace mcdvfs

#endif // MCDVFS_DAEMON_TUNING_DAEMON_HH

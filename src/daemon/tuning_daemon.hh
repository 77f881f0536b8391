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
 *               (admission       (coalesce    (GridCache     stage
 *                control,         by grid      probe; a miss  (Analysis-
 *                load-shed)       fingerprint) builds on the  Cache)
 *                                              pool)
 *
 *  - Admission control: the submit queue is bounded; once its depth
 *    reaches queueCapacity, new requests are rejected immediately
 *    with a reason (the future still resolves — callers never hang),
 *    counted in daemon.shed{reason}.  A saturated daemon degrades by
 *    shedding load, not by growing an unbounded backlog.
 *  - Batching/coalescing: a dedicated batcher thread drains up to
 *    maxBatch requests at a time and groups them by the GridKey each
 *    request carries from submit() (workload, space, config); each
 *    group probes the grid cache once and fans the per-request
 *    analyses from that grid.  A cached group runs right there on the
 *    batcher, so a warm decision crosses one thread boundary (caller
 *    -> batcher).  An analysis miss on a cached grid (a new budget)
 *    runs there too, its fill fanned over the pool, and the batch's
 *    later cached groups wait for it.  Only a group that must build
 *    becomes a pool task, submitted before the cached groups run, so
 *    distinct grids characterize concurrently and no build waits
 *    behind warm work.  A later batch's group whose grid is still
 *    building joins that build's task and runs after its members, so
 *    a grid is built once: the task's key in building_ is the one
 *    record of a grid in flight.  The task takes its members twice:
 *    those waiting when it starts, then those that joined while it
 *    ran; the second take releases the key, so later traffic on a
 *    built grid probes, hits and runs on the batcher.
 *    This is the library's one batch loop: the service underneath
 *    answers one request at a time.
 *  - Persistence: with a SnapshotStore attached, every fresh grid
 *    build and fresh analysis is written through to the store (best
 *    effort: a failed write is counted and the request still
 *    served), and construction warm-loads the newest snapshots of
 *    each kind, up to the grid and analysis cache capacities, into
 *    the caches — a restarted daemon answers its first requests from
 *    the store instead of recharacterizing the fleet (snapshots
 *    round-trip bit-identically, so warm results equal cold results
 *    exactly).  The warm start lists the store once without opening
 *    a file, loads the selection over the pool, and primes the caches
 *    oldest first, so the newest snapshot is the most recently used.
 *  - Shutdown: drain() stops admission (Draining sheds), joins the
 *    batcher once it has dispatched the queue, then drains the pool,
 *    which waits for every build task still queued or running — no
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
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
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
    /**
     * Nanoseconds from submit() to the start of this request's
     * analysis (0 when shed): queueing, batching, the group's grid
     * stage and the analyses of earlier members of its group.
     */
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
     * construction warm-loads the newest stored snapshots, as many of
     * each kind as its cache holds, and every fresh grid/analysis is
     * written through.
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
    /**
     * Requests that shared a batch group with an earlier request, or
     * joined the build of a group from an earlier batch.
     */
    std::uint64_t coalesced = 0;
    std::uint64_t completed = 0;
    /** Admitted requests whose future holds an exception. */
    std::uint64_t failed = 0;
    /**
     * Analyses that resumed from an incremental checkpoint of a
     * shorter content prefix instead of recomputing the full history.
     */
    std::uint64_t analysisResumed = 0;
    /** Grid snapshots resident after the warm start. */
    std::uint64_t warmGrids = 0;
    /** Analysis snapshots resident after the warm start. */
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
     * Draining), dispatch every queued request, then drain the pool,
     * so every admitted future is resolved on return.  Idempotent.
     */
    void drain();

    /** Requests admitted but not yet taken by the batcher. */
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
        /** The request's grid identity, computed once by submit(). */
        svc::GridKey key;
        std::promise<DaemonResponse> promise;
        obs::Clock::time_point submittedAt;
        /** Process-unique request id (also the trace flow id). */
        std::uint64_t requestId = 0;
        /** FNV-1a hash of the workload class name. */
        std::uint64_t classId = 0;
    };

    void warmLoad();
    void batcherLoop();
    /**
     * Group one drained batch by grid, submit the groups that must
     * build as pool tasks, then run the cached groups on this thread.
     */
    void dispatchBatch(std::vector<Pending> batch);
    /**
     * Build task of @c key: the grid stage (build, then the snapshot)
     * and the analysis stage of the members waiting for this build,
     * then one more take, which releases the key, for the members
     * later batches added while it ran.  @c grid_ns is the time the
     * batcher spent probing.  Never throws: a grid-stage failure fails
     * the members of the first take, and those of the second probe
     * and build as their own group.
     */
    void runBuild(const svc::GridKey &key, std::uint64_t grid_ns);
    /**
     * Take the members waiting for @c key's build; with @c release,
     * also erase the key, so the next batch probes the cache again.
     */
    std::vector<Pending> takeBuildMembers(const svc::GridKey &key,
                                          bool release);
    /**
     * Grid stage of a build group led by @c lead: with @c probe, one
     * counted cache probe first; on a miss, buildGrid() and the grid
     * snapshot.  Adds its time to @c grid_ns.
     */
    std::shared_ptr<const MeasuredGrid> buildStage(
        const svc::GridKey &key, const Pending &lead, bool probe,
        bool &grid_hit, std::uint64_t &grid_ns);
    /**
     * Analysis stage of @c members over @c grid (whose GridKey digest
     * is @c digest); @c lead_hit is the first member's grid-stage
     * outcome.  Never throws: a failure resolves only that member.
     */
    void runGroup(std::uint64_t digest, std::vector<Pending> &members,
                  const std::shared_ptr<const MeasuredGrid> &grid,
                  bool lead_hit, std::uint64_t grid_ns);
    /** Resolve every member of a group with @c error. */
    void failGroup(std::vector<Pending> &members, std::exception_ptr error);
    /** Resolve a request immediately with a shed response. */
    static void shed(std::promise<DaemonResponse> promise,
                     ShedReason reason);

    Options options_;
    svc::CharacterizationService service_;
    std::unique_ptr<SnapshotStore> store_;
    obs::DecisionJournal *journal_ = nullptr;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<Pending> queue_;
    bool draining_ = false;

    /**
     * By key, the members waiting for each build task in flight.  A
     * later batch's group whose key is building joins the waiting
     * members instead of probing, so it runs behind the build's first
     * members (an identical request finds their analysis cached).
     * The task releases the key after its second take; the pool, not
     * the daemon, tracks the task itself (drain()).
     */
    std::mutex buildingMutex_;
    std::unordered_map<svc::GridKey, std::vector<Pending>, exec::DigestHash>
        building_;

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

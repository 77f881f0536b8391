/**
 * @file
 * Execution tracing: per-thread lock-free ring-buffer event collection
 * with a Chrome trace_event exporter (loadable in Perfetto or
 * chrome://tracing).
 *
 * The metrics layer (obs/metrics.hh) answers "how much" questions;
 * this layer answers "when" questions: where wall-time goes inside a
 * daemon batch, which grid build a worker was running at a given
 * instant, when a governor decided to re-tune.  The span and
 * instant catalog lives in docs/OBSERVABILITY.md.
 *
 * Design:
 *  - Recording is gated twice.  At compile time, MCDVFS_TRACING=OFF
 *    (or MCDVFS_METRICS=OFF) defines MCDVFS_TRACING_DISABLED and every
 *    instrumentation-site helper (TraceSpan, traceInstant) becomes an
 *    empty inline.  At runtime, nothing is recorded until
 *    TraceCollector::global().enable() is called (e.g. by
 *    `mcdvfs_cli --trace-out FILE`), so instrumented builds that never
 *    ask for a trace pay one relaxed atomic load per site.
 *  - Each writer thread owns a fixed-capacity ring of slots; writes
 *    never block and never allocate past ring registration.  A full
 *    ring drops the *oldest* events (the slot is simply overwritten)
 *    and the collector reports how many were lost.
 *  - Slots are seqlock-protected: the writer brackets relaxed payload
 *    stores with an odd/even sequence number, so a concurrent snapshot
 *    either observes a consistent event or skips it.  All slot fields
 *    are atomics with relaxed ordering (plus release/acquire on the
 *    sequence), which keeps the protocol TSan-clean.
 *  - Event names must be string literals (or otherwise outlive the
 *    collector): slots store the pointer, never a copy.
 *
 * Timestamps are steady-clock nanoseconds relative to the first touch
 * of the collector, so exported traces start near t=0.
 */

#ifndef MCDVFS_OBS_TRACE_HH
#define MCDVFS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mcdvfs
{
namespace obs
{

/** True when instrumentation sites record (see file comment). */
#ifdef MCDVFS_TRACING_DISABLED
inline constexpr bool kTracingEnabled = false;
#else
inline constexpr bool kTracingEnabled = true;
#endif

/** Default per-thread ring capacity, in events. */
inline constexpr std::size_t kDefaultTraceRingCapacity = 16384;

/** One consistent event read out of a ring. */
struct TraceEventView
{
    const char *name = nullptr;
    /** Chrome phase: 'X' (complete, has durNs) or 'i' (instant). */
    char phase = 'i';
    /** Start time, ns since the collector's epoch. */
    std::uint64_t tsNs = 0;
    /** Duration in ns ('X' events only). */
    std::uint64_t durNs = 0;
    /** One free-form integer argument (sample index, chunk id, ...). */
    std::uint64_t arg = 0;
    /**
     * Request flow id (0 = none): the TraceContext request id active
     * when the event was recorded; exported as a Perfetto flow
     * (bind_id + flow_in/flow_out) so one request's spans chain.
     */
    std::uint64_t flowId = 0;
    /** Collector-assigned writer-thread id (registration order). */
    std::size_t tid = 0;
};

/**
 * Request-scoped correlation ids, carried in a thread-local and
 * stamped into every span/instant recorded while installed (see
 * ScopedTraceContext).  requestId 0 means "no request in scope".
 * The daemon allocates ids at TuningDaemon::submit and re-installs
 * the context on the batcher and pool threads that serve the request,
 * so the journal and the trace share one id space.
 */
struct TraceContext
{
    std::uint64_t requestId = 0;
    /** FNV-1a hash of the workload class name. */
    std::uint64_t classId = 0;
};

/** The calling thread's active context (mutable; prefer the RAII). */
TraceContext &currentTraceContext();

/** Install a context for a scope; restores the previous one on exit. */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(TraceContext context)
        : saved_(currentTraceContext())
    {
        currentTraceContext() = context;
    }

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

    ~ScopedTraceContext() { currentTraceContext() = saved_; }

  private:
    TraceContext saved_;
};

/** Point-in-time view of every ring, ordered by (tid, record order). */
struct TraceSnapshot
{
    std::vector<TraceEventView> events;
    /** Events lost to ring wrap-around, summed over all rings. */
    std::uint64_t droppedEvents = 0;
    /** Events skipped because a writer was mid-store during read. */
    std::uint64_t tornReads = 0;
};

namespace detail
{

/**
 * One seqlock-protected event slot.  seq is 0 when never written,
 * odd while the owning thread is storing the payload, and
 * 2 * (write_index + 1) once the payload at write_index is stable.
 */
struct TraceSlot
{
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> tsNs{0};
    std::atomic<std::uint64_t> durNs{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> flow{0};
    std::atomic<const char *> name{nullptr};
    std::atomic<char> phase{0};
};

/**
 * Fixed-capacity single-writer event ring.  push() may only be called
 * by the owning thread; read() may run concurrently from any thread.
 */
class TraceRing
{
  public:
    TraceRing(std::size_t capacity, std::size_t tid);

    /** Record one event (owning thread only; never blocks). */
    void push(char phase, const char *name, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::uint64_t arg,
              std::uint64_t flow = 0);

    /** Events ever pushed (monotonic). */
    std::uint64_t written() const
    {
        return writeIndex_.load(std::memory_order_acquire);
    }

    /** Events lost to wrap-around so far. */
    std::uint64_t dropped() const;

    /**
     * Append every consistent retained event to @c out in record
     * order; returns the number of torn (skipped) slots.
     */
    std::uint64_t readInto(std::vector<TraceEventView> &out) const;

    std::size_t tid() const { return tid_; }
    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    const std::size_t tid_;
    std::vector<TraceSlot> slots_;
    /** Next write index; slot = writeIndex_ % capacity_. */
    std::atomic<std::uint64_t> writeIndex_{0};
};

} // namespace detail

/**
 * Process-wide trace collector: owns one ring per writer thread.
 * Rings are registered lazily on a thread's first record and stay
 * alive after the thread exits, so pool workers' events survive pool
 * destruction and appear in the final export.
 */
class TraceCollector
{
  public:
    TraceCollector() = default;
    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /** The collector all library instrumentation records into. */
    static TraceCollector &global();

    /**
     * Start recording.  @c ring_capacity is the per-thread event
     * capacity for rings registered from now on (existing rings keep
     * theirs).  Idempotent.
     */
    void enable(std::size_t ring_capacity = kDefaultTraceRingCapacity);

    /** Stop recording; retained events stay exportable. */
    void disable();

    /** True while recording is on (one relaxed load). */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Record one event into the calling thread's ring (no-op while
     * disabled).  @c name must outlive the collector (string
     * literal).  Instrumentation sites should prefer TraceSpan /
     * traceInstant; this entry point exists for tests and exporters
     * that need explicit timestamps.
     */
    void record(char phase, const char *name, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t arg,
                std::uint64_t flow = 0);

    /** Consistent view of every ring (safe while writers run). */
    TraceSnapshot snapshot() const;

    /**
     * Drop every ring and its events and reset the epoch.  Only safe
     * when no thread is concurrently recording (tests, or between
     * runs at quiescence).
     */
    void reset();

    /** ns since the collector's epoch (first global() touch). */
    static std::uint64_t nowNs();

  private:
    detail::TraceRing *ringForThisThread();

    std::atomic<bool> enabled_{false};
    /** Bumped by reset() so stale thread-local ring pointers die. */
    std::atomic<std::uint64_t> epoch_{1};
    mutable std::mutex mutex_;
    std::size_t capacity_ = kDefaultTraceRingCapacity;
    std::vector<std::unique_ptr<detail::TraceRing>> rings_;
};

/** True when this build records and the collector is enabled. */
inline bool
tracingActive()
{
    if constexpr (kTracingEnabled)
        return TraceCollector::global().enabled();
    else
        return false;
}

/**
 * RAII span: captures the start time at construction and records one
 * complete ('X') event at end() / destruction.  Costs one relaxed
 * load when tracing is off; compiles to nothing in disabled builds.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, std::uint64_t arg = 0)
    {
#ifndef MCDVFS_TRACING_DISABLED
        if (tracingActive()) {
            name_ = name;
            arg_ = arg;
            flow_ = currentTraceContext().requestId;
            startNs_ = TraceCollector::nowNs();
            active_ = true;
        }
#else
        (void)name;
        (void)arg;
#endif
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan() { end(); }

    /** Record the span now instead of at scope exit. */
    void
    end()
    {
#ifndef MCDVFS_TRACING_DISABLED
        if (active_) {
            active_ = false;
            TraceCollector::global().record(
                'X', name_, startNs_,
                TraceCollector::nowNs() - startNs_, arg_, flow_);
        }
#endif
    }

  private:
#ifndef MCDVFS_TRACING_DISABLED
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t arg_ = 0;
    std::uint64_t flow_ = 0;
    bool active_ = false;
#endif
};

/** Record an instant ('i') event at the current time. */
inline void
traceInstant(const char *name, std::uint64_t arg = 0)
{
    if constexpr (kTracingEnabled) {
        if (tracingActive()) {
            TraceCollector::global().record(
                'i', name, TraceCollector::nowNs(), 0, arg,
                currentTraceContext().requestId);
        }
    } else {
        (void)name;
        (void)arg;
    }
}

/**
 * Serialize a snapshot as Chrome trace_event JSON (schema
 * "mcdvfs-trace-v1" in otherData; ts/dur in microseconds as the
 * format requires).  Loadable in Perfetto and chrome://tracing.
 */
std::string toChromeJson(const TraceSnapshot &snapshot);

/**
 * Write the global collector's snapshot to @c path as Chrome JSON.
 * @throws FatalError on I/O failure.
 */
void writeChromeTraceJson(const std::string &path);

} // namespace obs
} // namespace mcdvfs

#endif // MCDVFS_OBS_TRACE_HH

#include "exec/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mcdvfs
{
namespace exec
{

namespace
{

/** Process-wide pool metrics (all live pools share them). */
struct PoolMetrics
{
    obs::Counter submitted;
    obs::Counter executed;
    obs::Counter loops;
    obs::Counter chunks;
    obs::Counter stealAttempts;
    obs::Counter stealHits;
    obs::Counter stealChunks;
    obs::Counter wakes;
    obs::Histogram queueWaitNs;
    obs::Histogram taskRunNs;
    obs::Gauge workers;
    obs::Gauge activeWorkers;

    PoolMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const auto latency = obs::MetricsRegistry::latencyBucketsNs();
        submitted = reg.counter("exec.pool.tasks_submitted");
        executed = reg.counter("exec.pool.tasks_executed");
        loops = reg.counter("exec.pool.parallel_for_loops");
        chunks = reg.counter("exec.pool.parallel_for_chunks");
        stealAttempts = reg.counter("exec.steal.attempts");
        stealHits = reg.counter("exec.steal.hits");
        stealChunks = reg.counter("exec.steal.chunks_stolen");
        wakes = reg.counter("exec.pool.wakes");
        queueWaitNs = reg.histogram("exec.pool.queue_wait_ns", latency);
        taskRunNs = reg.histogram("exec.pool.task_run_ns", latency);
        workers = reg.gauge("exec.pool.workers");
        activeWorkers = reg.gauge("exec.pool.active_workers");
    }
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics metrics;
    return metrics;
}

/**
 * Shared bookkeeping of one parallelFor() invocation, organized as
 * per-participant work-stealing strips.
 *
 * Each participant (the caller + one helper task per worker) owns a
 * *strip*: a contiguous chunk-index range packed into one 64-bit
 * atomic as (lo << 32) | hi.  The owner pops chunks from the front of
 * its strip; a participant whose strip ran dry sweeps the other strips
 * and steals the *back half* of the first non-empty one it finds,
 * parking the stolen range in its own strip.  Both pop and steal are
 * single-word CAS transitions that only ever shrink a range, and the
 * packed value fully encodes the remaining work — so a stale CAS that
 * happens to match the current bits still performs a valid
 * transition.  Dedup-skewed chunk costs (one huge group next to many
 * tiny ones) therefore rebalance instead of leaving workers idle
 * behind a shared claim counter that hands each straggler exactly one
 * chunk at a time.
 *
 * Completion is tracked by doneChunks: a chunk is counted exactly once
 * by whoever ran it, so the caller's wait is independent of which
 * strip a chunk ended its life in.
 */
struct LoopState
{
    /** Packed [lo, hi) chunk range; cache-line padded per strip. */
    struct alignas(64) Strip
    {
        std::atomic<std::uint64_t> range{0};
    };

    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    const std::function<void(std::size_t)> *body = nullptr;

    std::unique_ptr<Strip[]> strips;
    std::size_t stripCount = 0;
    std::atomic<std::size_t> nextParticipant{0};
    std::atomic<std::size_t> doneChunks{0};

    std::mutex mutex;
    std::condition_variable finished;
    std::exception_ptr firstError;

    static constexpr std::uint64_t
    pack(std::uint64_t lo, std::uint64_t hi)
    {
        return (lo << 32) | hi;
    }

    /** Pre-assign contiguous chunk ranges to @c participants strips. */
    void
    distribute(std::size_t participants)
    {
        stripCount = std::max<std::size_t>(1, participants);
        strips = std::make_unique<Strip[]>(stripCount);
        const std::size_t base = chunks / stripCount;
        const std::size_t remainder = chunks % stripCount;
        std::uint64_t next = 0;
        for (std::size_t i = 0; i < stripCount; ++i) {
            const std::uint64_t count = base + (i < remainder ? 1 : 0);
            strips[i].range.store(pack(next, next + count),
                                  std::memory_order_relaxed);
            next += count;
        }
    }

    /** Pop the front chunk of @c strip (owner side). */
    bool
    popFront(Strip &strip, std::size_t &chunk)
    {
        std::uint64_t r = strip.range.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t lo = r >> 32;
            const std::uint64_t hi = r & 0xffffffffull;
            if (lo >= hi)
                return false;
            if (strip.range.compare_exchange_weak(
                    r, pack(lo + 1, hi), std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                chunk = static_cast<std::size_t>(lo);
                return true;
            }
        }
    }

    /** Steal the back half of @c victim (thief side). */
    bool
    stealHalf(Strip &victim, std::uint64_t &lo_out,
              std::uint64_t &hi_out)
    {
        std::uint64_t r = victim.range.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t lo = r >> 32;
            const std::uint64_t hi = r & 0xffffffffull;
            if (lo >= hi)
                return false;
            const std::uint64_t take = (hi - lo + 1) / 2;
            const std::uint64_t mid = hi - take;
            if (victim.range.compare_exchange_weak(
                    r, pack(lo, mid), std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                lo_out = mid;
                hi_out = hi;
                return true;
            }
        }
    }

    /** Run one claimed chunk and account its completion. */
    void
    runChunk(std::size_t c)
    {
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = std::min(end, lo + grain);
        obs::TraceSpan chunk_span("exec.pool.chunk", c);
        try {
            for (std::size_t i = lo; i < hi; ++i)
                (*body)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
        }
        if (doneChunks.fetch_add(1) + 1 == chunks) {
            std::lock_guard<std::mutex> lock(mutex);
            finished.notify_all();
        }
    }

    /**
     * Work one participant's share: drain the owned strip, then steal
     * until every strip this participant can see is dry.  Exiting
     * while another participant still holds parked chunks is fine —
     * whatever lives in a strip is drained by that strip's owner, so
     * no chunk is ever orphaned.
     */
    void
    drain()
    {
        Strip &own =
            strips[nextParticipant.fetch_add(
                       1, std::memory_order_relaxed) %
                   stripCount];
        std::uint64_t attempts = 0;
        std::uint64_t hits = 0;
        std::uint64_t stolen = 0;
        for (;;) {
            std::size_t c;
            if (popFront(own, c)) {
                runChunk(c);
                continue;
            }
            bool got = false;
            const std::size_t self =
                static_cast<std::size_t>(&own - strips.get());
            for (std::size_t off = 1; off < stripCount && !got;
                 ++off) {
                Strip &victim = strips[(self + off) % stripCount];
                ++attempts;
                std::uint64_t lo = 0;
                std::uint64_t hi = 0;
                if (stealHalf(victim, lo, hi)) {
                    ++hits;
                    stolen += hi - lo;
                    // Run the first stolen chunk now; park the rest
                    // in the own (currently empty) strip, where other
                    // thieves can re-steal them.
                    own.range.store(pack(lo + 1, hi),
                                    std::memory_order_release);
                    runChunk(static_cast<std::size_t>(lo));
                    got = true;
                }
            }
            if (!got)
                break;
        }
        if (attempts > 0) {
            PoolMetrics &metrics = poolMetrics();
            metrics.stealAttempts.add(attempts);
            metrics.stealHits.add(hits);
            metrics.stealChunks.add(stolen);
        }
    }
};

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    poolMetrics().workers.add(static_cast<std::int64_t>(threads));
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    available_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    poolMetrics().workers.add(
        -static_cast<std::int64_t>(workers_.size()));
}

std::size_t
ThreadPool::defaultThreads()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void
ThreadPool::noteInlineTask()
{
    PoolMetrics &metrics = poolMetrics();
    metrics.submitted.add(1);
    metrics.executed.add(1);
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(QueuedTask{std::move(task), obs::metricsNow()});
    }
    poolMetrics().submitted.add(1);
    available_.notify_one();
}

void
ThreadPool::runTask(QueuedTask &task)
{
    PoolMetrics &metrics = poolMetrics();
    metrics.queueWaitNs.record(obs::elapsedNs(task.enqueuedAt));
    metrics.activeWorkers.add(1);
    {
        obs::ScopedTimer run_timer(metrics.taskRunNs);
        obs::TraceSpan task_span("exec.pool.task");
        task.fn();
    }
    metrics.activeWorkers.add(-1);
    metrics.executed.add(1);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // A wake: this worker found nothing to run, waited, and
            // leaves the wait with a task.
            const bool idle = !stop_ && queue_.empty();
            available_.wait(lock,
                            [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stop_ set and the queue drained
            if (idle)
                poolMetrics().wakes.add(1);
            task = std::move(queue_.front());
            queue_.pop_front();
            ++activeTasks_;
        }
        runTask(task);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeTasks_;
            if (queue_.empty() && activeTasks_ == 0)
                idle_.notify_all();
        }
    }
}

void
ThreadPool::checkAccepting() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_)
        fatal("thread pool: submit() after drain()");
}

bool
ThreadPool::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    idle_.wait(lock, [this] {
        return queue_.empty() && activeTasks_ == 0;
    });
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body,
                        std::size_t grain)
{
    if (begin >= end)
        return;
    grain = std::max<std::size_t>(1, grain);
    // Strip ranges pack two 32-bit chunk indices into one word; bump
    // the grain until the chunk count fits (unreachable in practice).
    while ((end - begin + grain - 1) / grain > 0xffffffffull)
        grain *= 2;

    auto state = std::make_shared<LoopState>();
    state->begin = begin;
    state->end = end;
    state->grain = grain;
    state->chunks = (end - begin + grain - 1) / grain;
    state->body = &body;

    poolMetrics().loops.add(1);
    poolMetrics().chunks.add(state->chunks);
    obs::TraceSpan loop_span("exec.pool.parallel_for", state->chunks);

    // One helper per worker is enough: each helper drains its strip
    // and then steals until everything is dry.  Helpers that arrive
    // late find their strip already emptied by thieves and return
    // after one sweep; the shared_ptr keeps the state alive for them
    // either way.
    const std::size_t helpers =
        std::min(workers_.size(), state->chunks > 0 ? state->chunks - 1
                                                    : std::size_t{0});
    state->distribute(helpers + 1);
    for (std::size_t i = 0; i < helpers; ++i)
        enqueue([state] { state->drain(); });

    state->drain();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->finished.wait(lock, [&state] {
        return state->doneChunks.load() == state->chunks;
    });
    if (state->firstError)
        std::rethrow_exception(state->firstError);
}

} // namespace exec
} // namespace mcdvfs

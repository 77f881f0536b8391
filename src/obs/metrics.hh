/**
 * @file
 * Lightweight process-wide metrics: counters, gauges and fixed-bucket
 * histograms behind a named registry, with a JSON snapshot exporter.
 *
 * The paper's algorithm-implication sections are all about accounting
 * (500 us + 30 uJ per tuning event, Sec. 6); this layer gives the
 * serving stack the same visibility at runtime: where grid-build time
 * goes, how often the cache hits, how long tasks wait in the pool
 * queue, how much simulated transition time/energy the tuning policies
 * burn.  docs/OBSERVABILITY.md has the metric catalog.
 *
 * Design:
 *  - Handles (Counter, Gauge, Histogram) are trivially copyable views
 *    onto storage owned by a MetricsRegistry; the registry must
 *    outlive its handles.  Registration is idempotent by name.
 *  - The write path is lock-free: counter and histogram cells are
 *    striped into kStripes cache-line-padded atomics indexed by a
 *    per-thread stripe id, so concurrent writers on different threads
 *    rarely share a line.  Reads merge the stripes.
 *  - Values are integers (counts, nanoseconds, nanojoules): integer
 *    accumulation is exact and atomic without CAS loops.
 *  - When the build disables metrics (MCDVFS_METRICS=OFF, which
 *    defines MCDVFS_METRICS_DISABLED), every mutating handle method
 *    and metricsNow() compile to empty inlines: instrumented code pays
 *    nothing, and snapshots report whatever was registered as zeros.
 */

#ifndef MCDVFS_OBS_METRICS_HH
#define MCDVFS_OBS_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mcdvfs
{
namespace obs
{

/** True when the build carries live instrumentation. */
#ifdef MCDVFS_METRICS_DISABLED
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/** Writer stripes per metric (power of two). */
inline constexpr std::size_t kStripes = 8;

using Clock = std::chrono::steady_clock;

/** Stripe index of the calling thread (stable for its lifetime). */
std::size_t threadStripe();

/** Clock::now() in instrumented builds, a zero time point otherwise. */
inline Clock::time_point
metricsNow()
{
#ifdef MCDVFS_METRICS_DISABLED
    return Clock::time_point{};
#else
    return Clock::now();
#endif
}

/** Nanoseconds since @c start (0 in disabled builds). */
inline std::uint64_t
elapsedNs(Clock::time_point start)
{
#ifdef MCDVFS_METRICS_DISABLED
    (void)start;
    return 0;
#else
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
#endif
}

namespace detail
{

/** One cache-line-padded atomic cell. */
struct alignas(64) StripedCell
{
    std::atomic<std::uint64_t> value{0};
};

/** Storage of one counter: a stripe of cells, merged on read. */
struct CounterCells
{
    StripedCell stripes[kStripes];

    void
    add(std::uint64_t n)
    {
        stripes[threadStripe()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t total() const;
    void reset();
};

/** Storage of one gauge: a single signed atomic (set/add). */
struct GaugeCells
{
    std::atomic<std::int64_t> value{0};
};

/** Storage of one histogram: per-bucket counters plus count and sum. */
struct HistogramCells
{
    explicit HistogramCells(std::vector<std::uint64_t> bounds);

    /** Ascending upper bucket bounds; the last bucket is unbounded. */
    const std::vector<std::uint64_t> bounds;
    /** bounds.size() + 1 buckets, each striped. */
    std::vector<std::unique_ptr<CounterCells>> buckets;
    CounterCells count;
    CounterCells sum;

    void record(std::uint64_t value);
    void reset();
};

} // namespace detail

/**
 * One dimension of a labeled metric: key/value pairs such as
 * {{"wl", "gobmk"}, {"domain", "gpu"}}.  Keys are sorted on
 * canonicalization, so label order at the call site does not matter.
 */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Canonical series name of a labeled metric:
 * `name{k1=v1,k2=v2}` with keys sorted and the characters
 * `{ } = , "` in values replaced by '_' (so the name is safe in both
 * the JSON and the Prometheus exporters).
 */
std::string labeledName(const std::string &name,
                        const MetricLabels &labels);

/** Monotonically increasing named value. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1)
    {
        if constexpr (kMetricsEnabled) {
            if (cells_ != nullptr)
                cells_->add(n);
        } else {
            (void)n;
        }
    }

    /** Merged value across all writer stripes. */
    std::uint64_t
    value() const
    {
        return cells_ != nullptr ? cells_->total() : 0;
    }

  private:
    friend class MetricsRegistry;
    explicit Counter(detail::CounterCells *cells) : cells_(cells) {}
    detail::CounterCells *cells_ = nullptr;
};

/**
 * A count one object owns that also feeds the global registry series
 * it is named after: one add() per event moves both, and value()
 * reads the object's own count.  Objects with a stats() API (the
 * daemon, the snapshot store, every sharded cache) hold one per
 * counted event, so "an object's stats and its series count the same
 * events" holds by type, not by two increments kept in step.  Owners
 * of one series each report their own count; the series reports the
 * sum.  The owned count is a relaxed atomic that stays live when
 * MCDVFS_METRICS=OFF compiles the series half out.
 */
class OwnedCounter
{
  public:
    /** Owns a count of `name`, or of its `name{labels}` series. */
    explicit OwnedCounter(const std::string &name,
                          const MetricLabels &labels = {});

    OwnedCounter(const OwnedCounter &) = delete;
    OwnedCounter &operator=(const OwnedCounter &) = delete;

    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        series_.add(n);
    }

    /** This owner's count (not the series total). */
    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
    Counter series_;
};

/** Named value that can move both ways (sizes, in-flight counts). */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(std::int64_t v)
    {
        if constexpr (kMetricsEnabled) {
            if (cells_ != nullptr)
                cells_->value.store(v, std::memory_order_relaxed);
        } else {
            (void)v;
        }
    }

    void
    add(std::int64_t delta)
    {
        if constexpr (kMetricsEnabled) {
            if (cells_ != nullptr)
                cells_->value.fetch_add(delta,
                                        std::memory_order_relaxed);
        } else {
            (void)delta;
        }
    }

    std::int64_t
    value() const
    {
        return cells_ != nullptr
                   ? cells_->value.load(std::memory_order_relaxed)
                   : 0;
    }

  private:
    friend class MetricsRegistry;
    explicit Gauge(detail::GaugeCells *cells) : cells_(cells) {}
    detail::GaugeCells *cells_ = nullptr;
};

/** Fixed-bucket histogram of integer values (e.g. nanoseconds). */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(std::uint64_t value)
    {
        if constexpr (kMetricsEnabled) {
            if (cells_ != nullptr)
                cells_->record(value);
        } else {
            (void)value;
        }
    }

    std::uint64_t count() const;
    std::uint64_t sum() const;

  private:
    friend class MetricsRegistry;
    explicit Histogram(detail::HistogramCells *cells) : cells_(cells) {}
    detail::HistogramCells *cells_ = nullptr;
};

/** Point-in-time, merged view of a registry (sorted by name). */
struct MetricsSnapshot
{
    struct HistogramView
    {
        std::string name;
        std::vector<std::uint64_t> bounds;
        /** bounds.size() + 1 entries; the last is the overflow bucket. */
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramView> histograms;
};

/** Owns named metrics; registration is idempotent by name. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry all library instrumentation uses. */
    static MetricsRegistry &global();

    /**
     * Register (or look up) a metric.  Re-registering a name with a
     * different kind — or a histogram with different bounds — throws
     * FatalError.
     */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name,
                        const std::vector<std::uint64_t> &bounds);

    /**
     * Register (or look up) one series of a dimensional counter
     * family: `reg.counter("daemon.completed", {{"wl", "gobmk"}})`
     * names the series `daemon.completed{wl=gobmk}`.  Labeled series
     * are ordinary counters — they appear in snapshots and exporters
     * under the canonical name — and the interner is bounded: once
     * labelLimit() distinct label sets exist, further new sets
     * collapse into `name{overflow=true}` (counted by
     * `obs.labels.overflowed`) so unbounded label cardinality cannot
     * exhaust memory.  Sites increment the labeled series *and* the
     * unlabeled total, so per-label values always sum to the base
     * counter.
     */
    Counter counter(const std::string &name, const MetricLabels &labels);

    /** Same interning for a labeled gauge series. */
    Gauge gauge(const std::string &name, const MetricLabels &labels);

    /** Distinct labeled series the interner still admits (default 1024). */
    std::size_t labelLimit() const;
    void setLabelLimit(std::size_t limit);

    /**
     * Canonical latency bucket upper bounds in nanoseconds: decades
     * from 1 us to 1 s (pinned by the snapshot golden test).
     */
    static std::vector<std::uint64_t> latencyBucketsNs();

    /** Merged point-in-time view of every registered metric. */
    MetricsSnapshot snapshot() const;

    /** Zero every value; names and bounds stay registered. */
    void reset();

  private:
    enum class Kind
    {
        CounterKind,
        GaugeKind,
        HistogramKind
    };

    /** Find-or-create cell helpers (mutex_ held by the caller). */
    detail::CounterCells *counterCellsLocked(const std::string &name);
    detail::GaugeCells *gaugeCellsLocked(const std::string &name);
    /** Interner of one labeled series name (mutex_ held). */
    std::string internLabeledLocked(const std::string &name,
                                    const MetricLabels &labels);

    mutable std::mutex mutex_;
    std::size_t labelLimit_ = 1024;
    std::size_t labeledSeries_ = 0;
    std::map<std::string, Kind> kinds_;
    std::map<std::string, std::unique_ptr<detail::CounterCells>>
        counters_;
    std::map<std::string, std::unique_ptr<detail::GaugeCells>> gauges_;
    std::map<std::string, std::unique_ptr<detail::HistogramCells>>
        histograms_;
};

/**
 * RAII timer recording elapsed nanoseconds into a histogram on
 * destruction (or at stop()).  A no-op in disabled builds.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram histogram)
        : histogram_(histogram), start_(metricsNow())
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (!stopped_)
            histogram_.record(elapsedNs(start_));
    }

    /** Record now and disarm the destructor; returns the elapsed ns. */
    std::uint64_t
    stop()
    {
        const std::uint64_t ns = elapsedNs(start_);
        if (!stopped_)
            histogram_.record(ns);
        stopped_ = true;
        return ns;
    }

  private:
    Histogram histogram_;
    Clock::time_point start_;
    bool stopped_ = false;
};

/**
 * Serialize a snapshot to the project's flat JSON conventions (see
 * bench/bench_json.hh); schema "mcdvfs-metrics-v1", keys sorted.
 */
std::string toJson(const MetricsSnapshot &snapshot);

/**
 * Serialize a snapshot as Prometheus text exposition: dots in metric
 * names become underscores, canonical `name{k=v}` series become
 * `name{k="v"}`, histograms expand to cumulative `_bucket{le="..."}`
 * lines plus `_sum` and `_count`.
 */
std::string toPromText(const MetricsSnapshot &snapshot);

/**
 * Write the global registry's snapshot to @c path.
 * @throws FatalError on I/O failure.
 */
void writeMetricsJson(const std::string &path);

} // namespace obs
} // namespace mcdvfs

#endif // MCDVFS_OBS_METRICS_HH

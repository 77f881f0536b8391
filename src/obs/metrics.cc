#include "obs/metrics.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace mcdvfs
{
namespace obs
{

std::size_t
threadStripe()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
}

namespace detail
{

std::uint64_t
CounterCells::total() const
{
    std::uint64_t sum = 0;
    for (const StripedCell &cell : stripes)
        sum += cell.value.load(std::memory_order_relaxed);
    return sum;
}

void
CounterCells::reset()
{
    for (StripedCell &cell : stripes)
        cell.value.store(0, std::memory_order_relaxed);
}

HistogramCells::HistogramCells(std::vector<std::uint64_t> b)
    : bounds(std::move(b))
{
    buckets.reserve(bounds.size() + 1);
    for (std::size_t i = 0; i < bounds.size() + 1; ++i)
        buckets.push_back(std::make_unique<CounterCells>());
}

void
HistogramCells::record(std::uint64_t value)
{
    // Inclusive upper bounds: a value equal to bounds[i] counts in
    // bucket i, anything above the last bound in the overflow bucket.
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    buckets[bucket]->add(1);
    count.add(1);
    sum.add(value);
}

void
HistogramCells::reset()
{
    for (auto &bucket : buckets)
        bucket->reset();
    count.reset();
    sum.reset();
}

} // namespace detail

std::uint64_t
Histogram::count() const
{
    return cells_ != nullptr ? cells_->count.total() : 0;
}

std::uint64_t
Histogram::sum() const
{
    return cells_ != nullptr ? cells_->sum.total() : 0;
}

namespace
{

/** Bridge from common's advisory logging channel into the registry. */
struct LogCounters
{
    Counter warnings;
    Counter informs;
};

LogCounters &
logCounters()
{
    static LogCounters counters;
    return counters;
}

/** Counter hook: runs once per warn()/inform(), before filtering. */
void
countLogMessage(LogLevel level)
{
    if (level >= LogLevel::Warn)
        logCounters().warnings.add(1);
    else
        logCounters().informs.add(1);
}

} // namespace

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    static const bool hooked = [] {
        logCounters().warnings =
            registry.counter("common.log.warnings");
        logCounters().informs = registry.counter("common.log.informs");
        mcdvfs::detail::setLogCounterHook(&countLogMessage);
        return true;
    }();
    (void)hooked;
    return registry;
}

detail::CounterCells *
MetricsRegistry::counterCellsLocked(const std::string &name)
{
    const auto kind = kinds_.find(name);
    if (kind != kinds_.end()) {
        if (kind->second != Kind::CounterKind)
            fatal("metrics: '", name, "' is already registered as a "
                  "different metric kind");
        return counters_.at(name).get();
    }
    kinds_.emplace(name, Kind::CounterKind);
    auto cells = std::make_unique<detail::CounterCells>();
    detail::CounterCells *raw = cells.get();
    counters_.emplace(name, std::move(cells));
    return raw;
}

detail::GaugeCells *
MetricsRegistry::gaugeCellsLocked(const std::string &name)
{
    const auto kind = kinds_.find(name);
    if (kind != kinds_.end()) {
        if (kind->second != Kind::GaugeKind)
            fatal("metrics: '", name, "' is already registered as a "
                  "different metric kind");
        return gauges_.at(name).get();
    }
    kinds_.emplace(name, Kind::GaugeKind);
    auto cells = std::make_unique<detail::GaugeCells>();
    detail::GaugeCells *raw = cells.get();
    gauges_.emplace(name, std::move(cells));
    return raw;
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Counter(counterCellsLocked(name));
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Gauge(gaugeCellsLocked(name));
}

std::string
labeledName(const std::string &name, const MetricLabels &labels)
{
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string out = name;
    out += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i != 0)
            out += ',';
        out += sorted[i].first;
        out += '=';
        for (const char c : sorted[i].second) {
            const bool unsafe = c == '{' || c == '}' || c == '=' ||
                                c == ',' || c == '"';
            out += unsafe ? '_' : c;
        }
    }
    out += '}';
    return out;
}

std::string
MetricsRegistry::internLabeledLocked(const std::string &name,
                                     const MetricLabels &labels)
{
    std::string series = labeledName(name, labels);
    if (kinds_.count(series) != 0)
        return series;
    if (labeledSeries_ >= labelLimit_) {
        // Cardinality cap: collapse the new label set into the
        // family's overflow series so memory stays bounded.
        counterCellsLocked("obs.labels.overflowed")->add(1);
        return labeledName(name, {{"overflow", "true"}});
    }
    ++labeledSeries_;
    return series;
}

Counter
MetricsRegistry::counter(const std::string &name,
                         const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Counter(counterCellsLocked(internLabeledLocked(name, labels)));
}

Gauge
MetricsRegistry::gauge(const std::string &name, const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Gauge(gaugeCellsLocked(internLabeledLocked(name, labels)));
}

OwnedCounter::OwnedCounter(const std::string &name,
                           const MetricLabels &labels)
    : series_(labels.empty()
                  ? MetricsRegistry::global().counter(name)
                  : MetricsRegistry::global().counter(name, labels))
{
}

std::size_t
MetricsRegistry::labelLimit() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return labelLimit_;
}

void
MetricsRegistry::setLabelLimit(std::size_t limit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    labelLimit_ = limit;
}

Histogram
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<std::uint64_t> &bounds)
{
    if (!std::is_sorted(bounds.begin(), bounds.end()))
        fatal("metrics: histogram '", name,
              "' bucket bounds must be ascending");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto kind = kinds_.find(name);
    if (kind != kinds_.end()) {
        if (kind->second != Kind::HistogramKind)
            fatal("metrics: '", name, "' is already registered as a "
                  "different metric kind");
        detail::HistogramCells *cells = histograms_.at(name).get();
        if (cells->bounds != bounds)
            fatal("metrics: histogram '", name,
                  "' re-registered with different bucket bounds");
        return Histogram(cells);
    }
    kinds_.emplace(name, Kind::HistogramKind);
    auto cells = std::make_unique<detail::HistogramCells>(bounds);
    Histogram handle(cells.get());
    histograms_.emplace(name, std::move(cells));
    return handle;
}

std::vector<std::uint64_t>
MetricsRegistry::latencyBucketsNs()
{
    // Decades from 1 us to 1 s; sub-microsecond work lands in the
    // first bucket, anything slower than a second in the overflow.
    return {1'000ull,          10'000ull,        100'000ull,
            1'000'000ull,      10'000'000ull,    100'000'000ull,
            1'000'000'000ull};
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, cells] : counters_)
        snap.counters.emplace_back(name, cells->total());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, cells] : gauges_)
        snap.gauges.emplace_back(
            name, cells->value.load(std::memory_order_relaxed));
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, cells] : histograms_) {
        MetricsSnapshot::HistogramView view;
        view.name = name;
        view.bounds = cells->bounds;
        view.counts.reserve(cells->buckets.size());
        for (const auto &bucket : cells->buckets)
            view.counts.push_back(bucket->total());
        view.count = cells->count.total();
        view.sum = cells->sum.total();
        snap.histograms.push_back(std::move(view));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, cells] : counters_)
        cells->reset();
    for (auto &[name, cells] : gauges_)
        cells->value.store(0, std::memory_order_relaxed);
    for (auto &[name, cells] : histograms_)
        cells->reset();
}

namespace
{

template <typename T>
void
writeScalarSection(std::ostringstream &out, const char *section,
                   const std::vector<std::pair<std::string, T>> &values)
{
    out << "  \"" << section << "\": {";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n") << "    \"" << values[i].first
            << "\": " << values[i].second;
    }
    out << (values.empty() ? "}" : "\n  }");
}

void
writeList(std::ostringstream &out, const std::vector<std::uint64_t> &v)
{
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out << (i == 0 ? "" : ", ") << v[i];
    out << "]";
}

} // namespace

std::string
toJson(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"mcdvfs-metrics-v1\",\n";
    writeScalarSection(out, "counters", snapshot.counters);
    out << ",\n";
    writeScalarSection(out, "gauges", snapshot.gauges);
    out << ",\n";
    out << "  \"histograms\": {";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const MetricsSnapshot::HistogramView &h = snapshot.histograms[i];
        out << (i == 0 ? "\n" : ",\n") << "    \"" << h.name
            << "\": {\"bounds\": ";
        writeList(out, h.bounds);
        out << ", \"counts\": ";
        writeList(out, h.counts);
        out << ", \"count\": " << h.count << ", \"sum\": " << h.sum
            << "}";
    }
    out << (snapshot.histograms.empty() ? "}" : "\n  }") << "\n";
    out << "}\n";
    return out.str();
}

namespace
{

/** Prometheus-safe metric name + label body from a canonical name. */
struct PromSeries
{
    std::string name;
    /** `k="v",k2="v2"` (empty when the series is unlabeled). */
    std::string labels;
};

PromSeries
promSeries(const std::string &canonical)
{
    PromSeries out;
    const std::size_t brace = canonical.find('{');
    std::string base = canonical.substr(0, brace);
    for (char &c : base) {
        if (c == '.' || c == '-')
            c = '_';
    }
    out.name = base;
    if (brace == std::string::npos || canonical.back() != '}')
        return out;
    const std::string body =
        canonical.substr(brace + 1, canonical.size() - brace - 2);
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        const std::string pair = body.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos) {
            if (!out.labels.empty())
                out.labels += ',';
            out.labels += pair.substr(0, eq);
            out.labels += "=\"";
            out.labels += pair.substr(eq + 1);
            out.labels += '"';
        }
        pos = comma + 1;
    }
    return out;
}

void
writePromLine(std::ostringstream &out, const PromSeries &series,
              const std::string &suffix, const std::string &extraLabel,
              std::uint64_t value)
{
    out << series.name << suffix;
    if (!series.labels.empty() || !extraLabel.empty()) {
        out << '{' << series.labels;
        if (!series.labels.empty() && !extraLabel.empty())
            out << ',';
        out << extraLabel << '}';
    }
    out << ' ' << value << '\n';
}

} // namespace

std::string
toPromText(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    for (const auto &[name, value] : snapshot.counters) {
        const PromSeries series = promSeries(name);
        writePromLine(out, series, "_total", "", value);
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const PromSeries series = promSeries(name);
        out << series.name;
        if (!series.labels.empty())
            out << '{' << series.labels << '}';
        out << ' ' << value << '\n';
    }
    for (const MetricsSnapshot::HistogramView &h : snapshot.histograms) {
        const PromSeries series = promSeries(h.name);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cumulative += h.counts[i];
            std::string le = "le=\"";
            le += i < h.bounds.size() ? std::to_string(h.bounds[i])
                                      : std::string("+Inf");
            le += '"';
            writePromLine(out, series, "_bucket", le, cumulative);
        }
        writePromLine(out, series, "_sum", "", h.sum);
        writePromLine(out, series, "_count", "", h.count);
    }
    return out.str();
}

void
writeMetricsJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("metrics json: cannot open ", path, " for writing");
    out << toJson(MetricsRegistry::global().snapshot());
    if (!out)
        fatal("metrics json: failed writing ", path);
}

} // namespace obs
} // namespace mcdvfs

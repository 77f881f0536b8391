/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark itself, around its calls into
 * each layer's public functions and from the stage fields of each
 * DaemonResponse; nothing inside the library is instrumented.  Each
 * span carries a name, start, end, parent span and request id.  At
 * exit the recorder writes a Chrome trace (chrome://tracing, Perfetto)
 * and a per-layer self-time table: a span's self time is its duration
 * minus the part its children cover.
 */

#ifndef MCDVFS_PERFBENCH_LAYER_TRACE_HH
#define MCDVFS_PERFBENCH_LAYER_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span; times are microseconds since the recorder's origin. */
struct Span
{
    /** Static string naming the layer call (e.g. "svc.keyFor"). */
    const char *name = "";
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    std::uint64_t requestId = 0;
    double startUs = 0.0;
    double endUs = 0.0;
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : origin_(Clock::now()) {}

    /** A fresh span id, for parents recorded after their children. */
    std::uint64_t newId() { return ++lastId_; }

    /** Record a span under a pre-allocated @c id. */
    void add(std::uint64_t id, const char *name, Clock::time_point start,
             Clock::time_point end, std::uint64_t parent = 0,
             std::uint64_t request = 0);

    /** Record a span under a fresh id; returns the id. */
    std::uint64_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::uint64_t parent = 0, std::uint64_t request = 0)
    {
        const std::uint64_t id = newId();
        add(id, name, start, end, parent, request);
        return id;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Per (root, span) name: count, mean duration, mean self time and
     * the span's share of its root's total time.
     */
    std::string selfTimeTable() const;

    /** Chrome trace_event JSON; root spans get non-overlapping lanes. */
    void writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // MCDVFS_PERFBENCH_LAYER_TRACE_HH

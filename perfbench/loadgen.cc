#include "loadgen.hh"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench
{

namespace
{

using std::chrono::microseconds;
using std::chrono::nanoseconds;

/** One sent request whose future is not yet harvested. */
struct Outstanding
{
    std::future<DaemonResponse> future;
    std::uint32_t index = 0;
    SendTiming timing;
};

bool
ready(std::future<DaemonResponse> &future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

/** Resolve one request into @c stats; returns its completion time. */
Clock::time_point
resolve(Outstanding &o, const HarvestFn &harvest, PhaseStats &stats)
{
    DaemonResponse response;
    try {
        response = o.future.get();
    } catch (...) {
        harvest(o.index, nullptr, o.timing);
        ++stats.failed;
        return Clock::now();
    }
    if (!response.ok()) {
        ++stats.shed;
        return o.timing.sent;
    }
    if (!harvest(o.index, &response, o.timing)) {
        ++stats.failed;
        return o.timing.sent;
    }
    ++stats.completed;
    stats.latencyUs.push_back(static_cast<double>(response.totalNs) / 1e3);
    return o.timing.sent + nanoseconds(response.totalNs);
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(std::ceil(q * values.size())) -
            (q > 0.0 ? 1 : 0));
    std::nth_element(values.begin(), values.begin() + rank, values.end());
    return values[rank];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
PhaseStats::percentileUs(double q) const
{
    return percentile(latencyUs, q);
}

PhaseStats
runClosedLoop(std::size_t outstanding_target, std::uint32_t first,
              std::size_t max_items, double seconds, const SubmitFn &submit,
              const HarvestFn &harvest)
{
    PhaseStats stats;
    std::vector<Outstanding> outstanding;
    outstanding.reserve(outstanding_target);
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
    Clock::time_point last_done = start;
    std::uint32_t index = first;
    for (;;) {
        while (outstanding.size() < outstanding_target &&
               stats.sent < max_items && Clock::now() < stop) {
            SendTiming timing;
            timing.sent = Clock::now();
            std::future<DaemonResponse> future = submit(index);
            timing.returned = Clock::now();
            outstanding.push_back(
                Outstanding{std::move(future), index, timing});
            ++index;
            ++stats.sent;
        }
        if (outstanding.empty())
            break;
        // Harvest every resolved request in one pass, keeping the rest
        // in send order; sleep only when none had resolved.
        std::size_t kept = 0;
        for (Outstanding &o : outstanding) {
            if (ready(o.future)) {
                last_done = std::max(last_done, resolve(o, harvest, stats));
                continue;
            }
            if (&outstanding[kept] != &o)  // no self-move of a future
                outstanding[kept] = std::move(o);
            ++kept;
        }
        const bool progressed = kept < outstanding.size();
        outstanding.erase(outstanding.begin() + kept, outstanding.end());
        if (!progressed)
            std::this_thread::sleep_for(microseconds(100));
    }
    stats.seconds = std::chrono::duration<double>(last_done - start).count();
    return stats;
}

} // namespace perfbench

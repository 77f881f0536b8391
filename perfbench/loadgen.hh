/**
 * @file
 * Load generation for the serving benchmark: a closed loop that keeps a
 * fixed number of requests outstanding, and the per-window statistics
 * it reports (perfbench/README.md).
 *
 * One generator thread sends every request and also harvests the
 * futures.
 */

#ifndef MCDVFS_PERFBENCH_LOADGEN_HH
#define MCDVFS_PERFBENCH_LOADGEN_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "daemon/tuning_daemon.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;
using mcdvfs::daemon::DaemonResponse;
using mcdvfs::daemon::TuningDaemon;

/** Timing of one sent request, as seen by the generator. */
struct SendTiming
{
    Clock::time_point sent;
    /** When submit() returned. */
    Clock::time_point returned;
};

/** What one closed-loop window saw. */
struct PhaseStats
{
    /** Start to last completion, seconds. */
    double seconds = 0.0;
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    /** Exceptions plus outputs the harvest callback rejected. */
    std::size_t failed = 0;
    /** DaemonResponse::totalNs of each completed request, microseconds. */
    std::vector<double> latencyUs;

    double percentileUs(double q) const;
};

/** Sends request @c index of the workload; returns the daemon's future. */
using SubmitFn =
    std::function<std::future<DaemonResponse>(std::uint32_t index)>;

/**
 * Inspects one resolved request; returns false when its output is
 * wrong (counted as failed).  @c response is nullptr when the future
 * carried an exception.
 */
using HarvestFn = std::function<bool(std::uint32_t index,
                                     const DaemonResponse *response,
                                     const SendTiming &timing)>;

/** Nearest-rank percentile (q in [0, 1]) of unsorted values. */
double percentile(std::vector<double> values, double q);

/** Median of unsorted values (0 for none). */
double median(std::vector<double> values);

/**
 * Keep @c outstanding requests in flight over indices first, first+1,
 * ... for @c seconds (or until @c max_items were sent), then wait for
 * the rest.
 */
PhaseStats runClosedLoop(std::size_t outstanding, std::uint32_t first,
                         std::size_t max_items, double seconds,
                         const SubmitFn &submit, const HarvestFn &harvest);

} // namespace perfbench

#endif // MCDVFS_PERFBENCH_LOADGEN_HH

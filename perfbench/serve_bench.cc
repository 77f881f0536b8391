/**
 * @file
 * The repository benchmark: tuning decisions served by
 * daemon::TuningDaemon under two named workloads (perfbench/README.md).
 *
 *   warm_zipf       closed loop, 1024 outstanding requests drawn Zipf(1.1)
 *                   from 96 primed classes: every request is a grid hit
 *                   and an analysis hit.
 *   cold_build      closed loop, two outstanding requests for workloads
 *                   no one has seen before: characterize + grid kernel
 *                   + first analysis + grid snapshot per request.
 *
 * --trace 0 prints the end-to-end metrics: the daemon's CPU time per
 * decision and its set-up time; --trace 1 replays a seeded
 * prefix of the workload and prints per-layer metrics, timed only by
 * calling each layer's public functions from this file and reading the
 * daemon's response stage fields, stats and obs counters.  Either way
 * every checked output is compared with a fresh single-thread
 * CharacterizationService, and the last stdout line is one JSON object.
 *
 * Exit status: 0 when every output is correct, 1 when any is not (the
 * JSON line is still printed), 2 on a usage or setup error.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/inefficiency.hh"
#include "core/optimal_settings.hh"
#include "core/performance_clusters.hh"
#include "core/stable_regions.hh"
#include "daemon/snapshot_store.hh"
#include "daemon/tuning_daemon.hh"
#include "layer_trace.hh"
#include "loadgen.hh"
#include "obs/metrics.hh"
#include "sim/profile_cache.hh"
#include "svc/fingerprint.hh"

using namespace mcdvfs;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------------
// Fixed configuration: one generator thread, the daemon's batcher and a
// service pool of two workers keep the load inside four cores.

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSequenceLength = std::size_t{1} << 20;
constexpr std::size_t kColdRequests = 4096;
/** Measurement windows per run; cpu_us_per_decision is their median. */
constexpr std::size_t kWindows = 16;
/** Warm responses digested during timing: one in this many. */
constexpr std::size_t kDigestEvery = 64;
/** Requests of the traced prefix recorded as spans. */
constexpr std::size_t kTracedRequests = 4000;

const std::vector<double> kBudgets = {1.1, 1.3, 1.5, 2.0};
const std::vector<double> kThresholds = {0.01, 0.03};

enum class Kind
{
    WarmZipf,
    ColdBuild
};

/** Per-workload load shape. */
struct WorkloadSpec
{
    const char *name;
    Kind kind;
    /** Requests the closed loop keeps in flight. */
    std::size_t outstanding;
};

// warm_zipf keeps the daemon saturated: its queue never runs dry, so
// the batcher always takes full batches and the batch composition (and
// with it the coalescing) follows the seeded sequence, not the host's
// timing.  cold_build keeps one request per pool worker.
const std::vector<WorkloadSpec> kWorkloads = {
    {"warm_zipf", Kind::WarmZipf, 1024},
    {"cold_build", Kind::ColdBuild, kWorkers},
};

/** fleet_sim's reduced sampler: the serving path, not the simulator,
 *  is under test, so grids build in milliseconds. */
SystemConfig
benchConfig()
{
    SystemConfig config = SystemConfig::paperDefault();
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    config.sampler.profileWarmupInstructions = 40'000;
    return config;
}

svc::ServiceOptions
serviceOptions(std::size_t jobs)
{
    svc::ServiceOptions options;
    options.jobs = jobs;
    // Large enough that all 12 primed grids and 96 primed analyses
    // stay resident (per-shard capacity is total / shards).
    options.cacheCapacity = 64;
    options.analysisCapacity = 1024;
    options.profileCacheCapacity = 1024;
    return options;
}

daemon::DaemonOptions
daemonOptions(const std::string &store)
{
    daemon::DaemonOptions options;
    options.service = serviceOptions(kWorkers);
    options.queueCapacity = 8192;
    options.storeDir = store;
    return options;
}

/** The twelve SPEC-like profiles: the paper's six plus six more. */
std::vector<WorkloadProfile>
servedWorkloads()
{
    std::vector<WorkloadProfile> all = standardWorkloads();
    all.push_back(makeMcf());
    all.push_back(makeHmmer());
    all.push_back(makeSjeng());
    all.push_back(makeOmnetpp());
    all.push_back(makeNamd());
    all.push_back(makeSoplex());
    return all;
}

/** Result digest, field for field as fleet_sim's digestOf. */
std::uint64_t
digestOf(const svc::TuningResult &result)
{
    svc::HashBuilder h;
    for (const OptimalChoice &choice : result.optimal) {
        h.add(static_cast<std::uint64_t>(choice.settingIndex));
        h.add(choice.speedup);
        h.add(choice.inefficiency);
    }
    for (const PerformanceCluster &cluster : result.clusters)
        h.add(static_cast<std::uint64_t>(cluster.settings.size()));
    for (const StableRegion &region : result.regions) {
        h.add(static_cast<std::uint64_t>(region.first));
        h.add(static_cast<std::uint64_t>(region.last));
        h.add(static_cast<std::uint64_t>(region.chosenSettingIndex));
    }
    return h.digest();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/**
 * Counters the traced run reads before and after a phase: every obs
 * counter, the daemon's stats, both caches' stats and the pool's
 * queue-wait histogram.
 */
struct LayerCounters
{
    std::map<std::string, std::uint64_t> obs;
    daemon::DaemonStats daemonStats;
    svc::GridCache::Stats grid;
    svc::AnalysisCache::Stats analysis;
    std::uint64_t poolWaitNs = 0;
    std::uint64_t poolWaits = 0;

    static LayerCounters
    take(TuningDaemon &d)
    {
        LayerCounters c;
        const obs::MetricsSnapshot snapshot =
            obs::MetricsRegistry::global().snapshot();
        for (const auto &[name, value] : snapshot.counters)
            c.obs[name] = value;
        for (const auto &h : snapshot.histograms) {
            if (h.name == "exec.pool.queue_wait_ns") {
                c.poolWaitNs = h.sum;
                c.poolWaits = h.count;
            }
        }
        c.daemonStats = d.stats();
        c.grid = d.service().cacheStats();
        c.analysis = d.service().analysisStats();
        return c;
    }

    /** Growth of obs counter @c name since @c earlier. */
    double
    delta(const LayerCounters &earlier, const char *name) const
    {
        auto value = [name](const LayerCounters &c) {
            const auto it = c.obs.find(name);
            return it == c.obs.end() ? std::uint64_t{0} : it->second;
        };
        return static_cast<double>(value(*this) - value(earlier));
    }
};

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return bytes;
}

// ---------------------------------------------------------------------
// Requests.  Every input is generated from the seed before timing.

class Requests
{
  public:
    Requests(Kind kind, std::uint64_t seed)
        : kind_(kind), workloads_(servedWorkloads())
    {
        for (const WorkloadProfile &w : workloads_) {
            for (const double b : kBudgets) {
                for (const double t : kThresholds)
                    classes_.push_back(
                        svc::TuningRequest{w, SettingsSpace::fine(), b, t});
            }
        }
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
        if (kind_ == Kind::ColdBuild) {
            cold_.reserve(kColdRequests);
            // Each cold request is a cut of a paper phase script under a
            // fresh seed.  Which script, the cut's length and where it
            // starts follow a fixed order, so every seed (and every
            // window of a run) sends the same mix of costs; the seed
            // draws each cut's trace seed, budget and threshold.
            for (std::size_t i = 0; i < kColdRequests; ++i) {
                const WorkloadProfile &base = workloads_[i % workloads_.size()];
                const std::size_t samples = 24 + i % 17;
                const std::size_t offset = (i / workloads_.size() * 13) %
                                           (base.sampleCount() - samples + 1);
                const std::uint64_t trace_seed = rng.next();
                const double budget = kBudgets[rng.uniformInt(kBudgets.size())];
                const double threshold =
                    kThresholds[rng.uniformInt(kThresholds.size())];
                WorkloadProfile cut(
                    "cold-" + base.name() + "-" + std::to_string(i), samples,
                    [base, offset](std::size_t s) {
                        return base.phaseFor(offset + s);
                    },
                    trace_seed, 0.02, WorkloadProfile::SeedMode::PerSample);
                cold_.push_back(svc::TuningRequest{cut, SettingsSpace::fine(),
                                                   budget, threshold});
            }
            return;
        }

        // Zipf(1.1) popularity over a fixed class order whose first 12
        // ranks cover the 12 grids, so every seed sends the same mix of
        // sample counts (fingerprint cost grows with them); the seed
        // only draws the sequence of classes.
        std::vector<std::uint32_t> rank_to_class(classes_.size());
        const std::size_t per_grid = kBudgets.size() * kThresholds.size();
        for (std::size_t i = 0; i < rank_to_class.size(); ++i)
            rank_to_class[i] = static_cast<std::uint32_t>(
                (i % workloads_.size()) * per_grid + i / workloads_.size());
        std::vector<double> cdf(classes_.size());
        double total = 0.0;
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
            cdf[i] = total;
        }

        sequence_.resize(kSequenceLength);
        for (std::uint32_t &item : sequence_) {
            const std::size_t rank = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(),
                                 rng.uniform() * total) -
                cdf.begin());
            item = rank_to_class[std::min(rank, cdf.size() - 1)];
        }
    }

    /**
     * The item the workload's request number @c index asks for: a class
     * of warm_zipf, or a cold request.  Outputs are checked per item.
     */
    std::uint32_t
    item(std::uint32_t index) const
    {
        return kind_ == Kind::WarmZipf ? sequence_[index % sequence_.size()]
                                       : index;
    }

    /** How many requests the workload can send (warm_zipf wraps). */
    std::size_t
    count() const
    {
        return kind_ == Kind::WarmZipf ? std::numeric_limits<std::uint32_t>::max()
                                       : cold_.size();
    }

    const std::vector<svc::TuningRequest> &classes() const
    {
        return classes_;
    }

    /** The request of @c item. */
    const svc::TuningRequest &
    request(std::uint32_t item) const
    {
        return kind_ == Kind::WarmZipf ? classes_[item] : cold_[item];
    }

    std::future<DaemonResponse>
    send(TuningDaemon &daemon, std::uint32_t item) const
    {
        return daemon.submit(request(item));
    }

  private:
    Kind kind_;
    std::vector<WorkloadProfile> workloads_;
    std::vector<svc::TuningRequest> classes_;
    std::vector<std::uint32_t> sequence_;
    std::vector<svc::TuningRequest> cold_;
};

// ---------------------------------------------------------------------
// Output checks.

/** Outputs observed during timing, compared with a reference after. */
class OutputCheck
{
  public:
    OutputCheck(const WorkloadSpec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed)
    {
    }

    /**
     * Inspect one response on the generator thread.  Returns false for
     * a broken stage partition or a request that contradicts the
     * workload's definition (a warm miss or a cold cache hit).
     */
    bool
    inspect(std::uint32_t item, const DaemonResponse &response)
    {
        ++inspected_;
        if (response.totalNs < response.queueNs + response.analysisNs) {
            ++partitionErrors_;
            return false;
        }
        const svc::TuningResult &r = response.result;
        const bool intent = spec_.kind == Kind::WarmZipf
                                ? r.cacheHit && r.analysisCacheHit
                                : !r.cacheHit && !r.analysisCacheHit;
        if (!intent) {
            ++intentErrors_;
            return false;
        }
        if (sampled(item))
            observed_.emplace_back(item, digestOf(r));
        return true;
    }

    /** Compare everything observed with a fresh single-thread service. */
    void
    verify(const Requests &requests, TuningDaemon &daemon)
    {
        if (spec_.kind == Kind::WarmZipf) {
            // Every class, served once more after timing.
            for (std::uint32_t c = 0; c < requests.classes().size(); ++c) {
                const DaemonResponse response = requests.send(daemon, c).get();
                if (!response.ok())
                    ++mismatches_;
                else if (inspect(c, response))
                    observed_.emplace_back(c, digestOf(response.result));
            }
        }
        svc::CharacterizationService reference(benchConfig(),
                                               serviceOptions(1));
        std::map<std::uint32_t, std::uint64_t> expected;
        for (const auto &[item, digest] : observed_) {
            auto it = expected.find(item);
            if (it == expected.end())
                it = expected
                         .emplace(item, digestOf(reference.submit(
                                            requests.request(item))))
                         .first;
            if (it->second != digest)
                ++mismatches_;
        }
        checkedItems_ = expected.size();
    }

    std::size_t failures() const
    {
        return mismatches_ + partitionErrors_ + intentErrors_;
    }
    std::size_t mismatches() const { return mismatches_; }
    std::size_t partitionErrors() const { return partitionErrors_; }
    std::size_t intentErrors() const { return intentErrors_; }
    std::size_t checkedItems() const { return checkedItems_; }

  private:
    /** Fixed, seeded subset whose outputs are digested. */
    bool
    sampled(std::uint32_t item)
    {
        if (spec_.kind == Kind::WarmZipf)
            return firstSeen_.insert(item).second ||
                   inspected_ % kDigestEvery == 0;
        return item % 8 == seed_ % 8 && observed_.size() < 12;
    }

    const WorkloadSpec &spec_;
    std::uint64_t seed_;
    std::size_t inspected_ = 0;
    std::set<std::uint32_t> firstSeen_;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> observed_;
    std::size_t mismatches_ = 0;
    std::size_t partitionErrors_ = 0;
    std::size_t intentErrors_ = 0;
    std::size_t checkedItems_ = 0;
};

// ---------------------------------------------------------------------
// Run directory: the primed snapshot store and scratch stores.

class RunDir
{
  public:
    RunDir(const std::string &workdir, const std::string &tag)
        : path_(fs::path(workdir) / ("perfbench-run-" + tag))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~RunDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    std::string sub(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

/**
 * Build the 12 grids and 96 class analyses once through a daemon with
 * the store attached, so the measured daemon restarts over it.
 */
std::set<std::string>
primeStore(const std::string &store, const Requests &requests)
{
    {
        TuningDaemon primer(benchConfig(), daemonOptions(store));
        std::vector<std::future<DaemonResponse>> pending;
        for (const svc::TuningRequest &request : requests.classes())
            pending.push_back(primer.submit(request));
        for (std::future<DaemonResponse> &f : pending) {
            if (!f.get().ok())
                fatal("perfbench: priming request was shed");
        }
    }
    std::set<std::string> primed;
    for (const fs::directory_entry &entry : fs::directory_iterator(store))
        primed.insert(entry.path().filename().string());
    return primed;
}

/** Drop snapshots written since priming (keeps the page cache small). */
void
pruneStore(const std::string &store, const std::set<std::string> &primed)
{
    for (const fs::directory_entry &entry : fs::directory_iterator(store)) {
        if (primed.count(entry.path().filename().string()) == 0)
            fs::remove(entry.path());
    }
}

/** Totals kept across every phase of a run. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    add(const PhaseStats &s)
    {
        attempted += s.sent;
        failed += s.shed + s.failed;
    }
};

// ---------------------------------------------------------------------
// Daemon CPU time.

double
cpuUs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
}

/**
 * CPU time the daemon spends: its own threads' (the process's CPU time
 * minus the generator thread's) plus the submit() calls it runs on the
 * generator thread.  The kernel does not charge a thread for time the
 * hypervisor stole from its vCPU, so on a shared host this follows the
 * code where wall-clock latency follows the host.  Call from the
 * generator thread only.
 */
class DaemonCpu
{
  public:
    /** Run @c send on this thread, charging its CPU time to the daemon. */
    template <typename Send>
    std::future<DaemonResponse>
    charge(Send send)
    {
        const double t0 = cpuUs(CLOCK_THREAD_CPUTIME_ID);
        std::future<DaemonResponse> future = send();
        submitUs_ += cpuUs(CLOCK_THREAD_CPUTIME_ID) - t0;
        return future;
    }

    /** The daemon's CPU time so far, microseconds. */
    double
    totalUs() const
    {
        return cpuUs(CLOCK_PROCESS_CPUTIME_ID) -
               cpuUs(CLOCK_THREAD_CPUTIME_ID) + submitUs_;
    }

  private:
    double submitUs_ = 0.0;
};

void
printWindow(std::size_t index, const PhaseStats &s, double cpu_per_decision)
{
    std::printf("  window %2zu: %6zu done %3zu shed %2zu fail in %6.3f s "
                "(%8.1f/s)  cpu %9.2f us/decision  p50 %9.1f p99 %9.1f us\n",
                index, s.completed, s.shed, s.failed, s.seconds,
                ratio(static_cast<double>(s.completed), s.seconds),
                cpu_per_decision, s.percentileUs(0.5),
                s.percentileUs(0.99));
}

// ---------------------------------------------------------------------
// Metrics output.

struct MetricValue
{
    double value;
    const char *unit;
};
using Metrics = std::vector<std::pair<std::string, MetricValue>>;

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].second.value)
                             ? metrics[i].second.value
                             : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].first.c_str(), v,
                    metrics[i].second.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Daemon construction over the primed store, median of several. */
double
setupSeconds(const std::string &store,
             std::unique_ptr<TuningDaemon> &daemon)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        daemon.reset();
        const Clock::time_point start = Clock::now();
        daemon = std::make_unique<TuningDaemon>(benchConfig(),
                                                daemonOptions(store));
        samples.push_back(secondsSince(start));
    }
    return median(samples);
}


// ---------------------------------------------------------------------
// End-to-end run (--trace 0).

int
runEndToEnd(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
            const std::string &workdir)
{
    RunDir dir(workdir, std::string(spec.name) + "-" +
                            std::to_string(::getpid()));
    const std::string store = dir.sub("store");
    const Requests requests(spec.kind, seed);
    const std::set<std::string> primed = primeStore(store, requests);

    std::unique_ptr<TuningDaemon> daemon;
    const double setup_s = setupSeconds(store, daemon);

    OutputCheck check(spec, seed);
    const HarvestFn harvest = [&](std::uint32_t index,
                                  const DaemonResponse *response,
                                  const SendTiming &) {
        return response != nullptr &&
               check.inspect(requests.item(index), *response);
    };
    DaemonCpu cpu;
    const SubmitFn submit = [&](std::uint32_t index) {
        return cpu.charge(
            [&] { return requests.send(*daemon, requests.item(index)); });
    };

    // kWindows closed-loop windows over --seconds, pruning the store
    // between them; the metric is the median of the windows' CPU time
    // per decision.
    Tally tally;
    const double window_seconds = seconds / kWindows;
    std::printf("%s: %zu windows of %.2f s, %zu requests outstanding\n",
                spec.name, kWindows, window_seconds, spec.outstanding);
    std::vector<double> per_decision;
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < kWindows; ++i) {
        const double cpu_before = cpu.totalUs();
        const PhaseStats s =
            runClosedLoop(spec.outstanding, next, requests.count() - next,
                          window_seconds, submit, harvest);
        per_decision.push_back(ratio(cpu.totalUs() - cpu_before,
                                     static_cast<double>(s.completed)));
        next += static_cast<std::uint32_t>(s.sent);
        pruneStore(store, primed);
        printWindow(i, s, per_decision.back());
        tally.add(s);
    }
    const Metrics metrics = {
        {"cpu_us_per_decision", {median(per_decision), "us"}},
        {"setup_s", {setup_s, "s"}},
    };

    check.verify(requests, *daemon);
    daemon->drain();
    const bool correct = check.failures() == 0;
    tally.failed += check.mismatches();
    std::printf("checked %zu distinct outputs: %zu mismatches, %zu stage "
                "partition errors, %zu workload-intent errors\n",
                check.checkedItems(), check.mismatches(),
                check.partitionErrors(), check.intentErrors());
    printResult(correct, tally.attempted, tally.failed, metrics);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Traced run (--trace 1): per-layer metrics.

/** Per-request stage means from DaemonResponse fields. */
struct StageTotals
{
    std::size_t requests = 0;
    double submitUs = 0.0;
    double waitUs = 0.0;
    double gridUs = 0.0;
    double analysisUs = 0.0;
    double handoffUs = 0.0;
};

/** Running mean of one timed layer call. */
struct Mean
{
    double total = 0.0;
    std::size_t count = 0;

    void add(double v)
    {
        total += v;
        ++count;
    }
    double value() const { return count ? total / count : 0.0; }
};

int
runTraced(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
          const std::string &workdir)
{
    RunDir dir(workdir, std::string(spec.name) + "-trace-" +
                            std::to_string(::getpid()));
    const std::string store = dir.sub("store");
    const Requests requests(spec.kind, seed);
    primeStore(store, requests);
    auto daemon = std::make_unique<TuningDaemon>(benchConfig(),
                                                 daemonOptions(store));
    const SystemConfig config = benchConfig();
    SpanRecorder trace;

    OutputCheck check(spec, seed);
    bool tracing = false;
    StageTotals stages;
    /** The last requests served in the traced prefix. */
    struct Served
    {
        std::uint32_t item;
        bool gridHit;
        bool analysisHit;
    };
    std::deque<Served> served;
    const HarvestFn harvest = [&](std::uint32_t index,
                                  const DaemonResponse *response,
                                  const SendTiming &t) {
        const std::uint32_t item = requests.item(index);
        if (response == nullptr || !check.inspect(item, *response))
            return false;
        if (!tracing)
            return true;
        // Stage means cover the whole prefix; spans only its start, to
        // keep the trace file small.
        const bool record = stages.requests < kTracedRequests;
        const DaemonResponse &r = *response;
        const double wait = r.queueNs / 1e3;
        const double analysis = r.analysisNs / 1e3;
        const double total = r.totalNs / 1e3;
        // Never negative: inspect() rejected any response whose stage
        // fields overlap past totalNs.
        const double handoff = total - wait - analysis;
        ++stages.requests;
        stages.submitUs += usBetween(t.sent, t.returned);
        stages.waitUs += wait;
        stages.gridUs += r.gridNs / 1e3;
        stages.analysisUs += analysis;
        stages.handoffUs += handoff;

        served.push_back(
            Served{item, r.result.cacheHit, r.result.analysisCacheHit});
        if (served.size() > 64)
            served.pop_front();
        if (!record)
            return true;
        auto at = [&](double us) {
            return t.sent + std::chrono::nanoseconds(std::llround(us * 1e3));
        };
        const std::uint64_t request = index + 1;
        const std::uint64_t root = trace.add("request", t.sent, at(total), 0,
                                             request);
        const std::uint64_t w =
            trace.add("daemon.wait", t.sent, at(wait), root, request);
        trace.add("daemon.grid_stage", at(std::max(0.0, wait - r.gridNs / 1e3)),
                  at(wait), w, request);
        trace.add("daemon.analysis_stage", at(wait), at(wait + analysis),
                  root, request);
        trace.add("daemon.handoff", at(wait + analysis), at(total), root,
                  request);
        trace.add("daemon.submit", t.sent, t.returned, 0, request);
        return true;
    };
    const SubmitFn submit = [&](std::uint32_t index) {
        return requests.send(*daemon, requests.item(index));
    };

    // The warm restart's loads, timed on the store as primed.
    std::vector<double> warm_load;
    for (int i = 0; i < 3; ++i) {
        daemon::SnapshotStore primed(store);
        const std::uint64_t root = trace.newId();
        const Clock::time_point l0 = Clock::now();
        const auto grids = primed.loadAllGrids();
        const Clock::time_point l1 = Clock::now();
        const auto analyses = primed.loadAllAnalyses();
        const Clock::time_point l2 = Clock::now();
        trace.add(root, "store.warm_load", l0, l2);
        trace.add("store.loadAllGrids", l0, l1, root);
        trace.add("store.loadAllAnalyses", l1, l2, root);
        warm_load.push_back(usBetween(l0, l2) / 1e3);
    }

    // Untraced and traced replays of consecutive seeded prefixes of a
    // fixed length (the time limit only guards a very slow host).
    const std::size_t prefix = spec.kind == Kind::ColdBuild ? 16 : 50000;
    const double prefix_seconds = 0.3 * seconds;
    Tally tally;
    const PhaseStats untraced = runClosedLoop(
        spec.outstanding, 0, prefix, prefix_seconds, submit, harvest);
    tracing = true;
    const LayerCounters before = LayerCounters::take(*daemon);
    const PhaseStats traced =
        runClosedLoop(spec.outstanding, static_cast<std::uint32_t>(untraced.sent),
                      prefix, prefix_seconds, submit, harvest);
    tracing = false;
    const LayerCounters after = LayerCounters::take(*daemon);
    tally.add(untraced);
    tally.add(traced);
    auto delta = [&](const char *name) { return after.delta(before, name); };

    // Layer calls timed from here, on the last served requests of the
    // traced prefix (their grid and analysis are cached by now).
    svc::CharacterizationService &service = daemon->service();
    daemon::SnapshotStore scratch(dir.sub("scratch"));
    Mean keyfor, lookup, hit, miss, core, write, build;
    std::uint64_t build_ns = 0;
    std::size_t sampled = 0;
    const LayerCounters sim_before = LayerCounters::take(*daemon);
    exec::ThreadPool build_pool(kWorkers);
    ProfileCache build_profiles(serviceOptions(kWorkers).profileCacheCapacity,
                                8, "perfbench.profile");
    GridRunner runner(config);
    runner.setThreadPool(&build_pool);
    runner.setProfileCache(&build_profiles);
    const std::size_t sim_limit = spec.kind == Kind::ColdBuild ? 8 : 0;
    for (std::size_t n = 0; n < served.size(); ++n) {
        const Served &done = served[n];
        const std::uint32_t item = done.item;
        const svc::TuningRequest &request = requests.request(item);
        const std::uint64_t id = 1'000'000'000ull + n;

        const std::uint64_t root = trace.newId();
        const Clock::time_point t0 = Clock::now();
        const svc::GridKey key =
            service.keyFor(request.workload, request.space);
        const Clock::time_point t1 = Clock::now();
        bool grid_hit = false;
        const std::shared_ptr<const MeasuredGrid> grid =
            service.grid(request.workload, request.space, grid_hit);
        const Clock::time_point t2 = Clock::now();
        const svc::TuningResult again =
            service.analyze(request, key.combined(), grid, grid_hit);
        const Clock::time_point t3 = Clock::now();
        trace.add(root, "svc.request", t0, t3, 0, id);
        trace.add("svc.keyFor", t0, t1, root, id);
        trace.add("svc.grid", t1, t2, root, id);
        trace.add("svc.analyze", t2, t3, root, id);
        if (!grid_hit || !again.analysisCacheHit)
            fatal("perfbench: a served request missed the service caches");
        keyfor.add(usBetween(t0, t1));
        lookup.add(usBetween(t1, t2));
        hit.add(usBetween(t2, t3));

        // A budget no request used before (served classes repeat, so
        // the offset grows with n), hence a true analysis miss.
        svc::TuningRequest fresh = request;
        fresh.budget += static_cast<double>(n + 1) * 1e-9;
        const Clock::time_point m0 = Clock::now();
        const svc::TuningResult missed =
            service.analyze(fresh, key.combined(), grid, true);
        const Clock::time_point m1 = Clock::now();
        if (missed.analysisCacheHit)
            fatal("perfbench: a fresh budget hit the analysis cache");
        trace.add("svc.analyze_miss", m0, m1, 0, id);
        miss.add(usBetween(m0, m1));

        const std::uint64_t croot = trace.newId();
        const Clock::time_point c0 = Clock::now();
        const InefficiencyAnalysis analysis(*grid);
        const OptimalSettingsFinder finder(analysis);
        const ClusterFinder clusters(finder);
        const StableRegionFinder regions(clusters);
        const Clock::time_point c1 = Clock::now();
        const ClusterTable table =
            clusters.table(request.budget, request.threshold);
        const Clock::time_point c2 = Clock::now();
        const std::vector<StableRegion> found = regions.fromTable(table);
        const Clock::time_point c3 = Clock::now();
        trace.add(croot, "core.analysis", c0, c3, 0, id);
        trace.add("core.finders", c0, c1, croot, id);
        trace.add("core.ClusterFinder.table", c1, c2, croot, id);
        trace.add("core.StableRegionFinder.fromTable", c2, c3, croot, id);
        core.add(usBetween(c0, c3));
        if (found.size() != again.regions.size())
            fatal("perfbench: core chain disagrees with the service");

        // The writes this request's path makes through the store.
        const std::uint64_t wroot = trace.newId();
        const Clock::time_point w0 = Clock::now();
        if (!done.gridHit) {
            scratch.storeGrid(key, *grid);
            trace.add("store.storeGrid", w0, Clock::now(), wroot, id);
        }
        const Clock::time_point w1 = Clock::now();
        if (!done.analysisHit) {
            svc::AnalysisResult snapshot{again.optimal, again.clusters,
                                         again.regions};
            scratch.storeAnalysis(
                svc::AnalysisKey{key.combined(), request.budget,
                                 request.threshold},
                snapshot);
            trace.add("store.storeAnalysis", w1, Clock::now(), wroot, id);
        }
        if (!done.gridHit || !done.analysisHit) {
            const Clock::time_point w2 = Clock::now();
            trace.add(wroot, "store.write", w0, w2, 0, id);
            write.add(usBetween(w0, w2));
        }
        ++sampled;

        if (!done.gridHit && build.count < sim_limit) {
            const Clock::time_point b0 = Clock::now();
            const MeasuredGrid rebuilt = runner.run(request.workload,
                                                    request.space);
            const Clock::time_point b1 = Clock::now();
            trace.add("sim.GridRunner.run", b0, b1, 0, id);
            build.add(usBetween(b0, b1) / 1e3);
            build_ns += static_cast<std::uint64_t>(
                std::chrono::nanoseconds(b1 - b0).count());
            if (rebuilt.sampleCount() != grid->sampleCount())
                fatal("perfbench: rebuilt grid differs in size");
        }
    }
    const LayerCounters sim_after = LayerCounters::take(*daemon);
    auto sim_delta = [&](const char *name) {
        return sim_after.delta(sim_before, name);
    };

    check.verify(requests, *daemon);
    daemon->drain();
    tally.failed += check.mismatches();
    const bool correct = check.failures() == 0;

    const double n =
        static_cast<double>(std::max<std::size_t>(1, stages.requests));
    const daemon::DaemonStats &d0 = before.daemonStats,
                              &d1 = after.daemonStats;
    const double admitted = static_cast<double>(d1.admitted - d0.admitted);
    const double shed = static_cast<double>(d1.shedQueueFull + d1.shedDraining -
                                            d0.shedQueueFull - d0.shedDraining);
    const double grid_hits =
        static_cast<double>(after.grid.hits - before.grid.hits);
    const double grid_misses =
        static_cast<double>(after.grid.misses - before.grid.misses);
    const double analysis_hits =
        static_cast<double>(after.analysis.hits - before.analysis.hits);
    const double analysis_misses =
        static_cast<double>(after.analysis.misses - before.analysis.misses);
    const double profile_hits = delta("svc.profile.hits");
    const double profile_misses = delta("svc.profile.misses");
    const double warm_hit_us = keyfor.value() + lookup.value() + hit.value();

    const Metrics metrics = {
        {"daemon.submit_us", {stages.submitUs / n, "us"}},
        {"daemon.wait_us", {stages.waitUs / n, "us"}},
        {"daemon.grid_stage_us", {stages.gridUs / n, "us"}},
        {"daemon.analysis_stage_us", {stages.analysisUs / n, "us"}},
        {"daemon.handoff_us", {stages.handoffUs / n, "us"}},
        {"daemon.batch_size",
         {ratio(admitted, static_cast<double>(d1.batches - d0.batches)),
          "count"}},
        {"daemon.coalesced_share",
         {ratio(static_cast<double>(d1.coalesced - d0.coalesced), admitted),
          "ratio"}},
        {"daemon.shed_share", {ratio(shed, admitted + shed), "ratio"}},
        {"svc.fingerprint_us", {keyfor.value(), "us"}},
        {"svc.fingerprint_share",
         {ratio(keyfor.value(), warm_hit_us), "ratio"}},
        {"svc.grid_lookup_us", {lookup.value(), "us"}},
        {"svc.analyze_hit_us", {hit.value(), "us"}},
        {"svc.analyze_miss_us", {miss.value(), "us"}},
        {"svc.grid_hit_ratio",
         {ratio(grid_hits, grid_hits + grid_misses), "ratio"}},
        {"svc.analysis_hit_ratio",
         {ratio(analysis_hits, analysis_hits + analysis_misses), "ratio"}},
        {"svc.analysis_evictions",
         {static_cast<double>(after.analysis.evictions -
                              before.analysis.evictions),
          "count"}},
        {"sim.grid_build_ms", {build.value(), "ms"}},
        {"sim.characterize_share",
         {ratio(sim_delta("sim.grid.characterize_ns"),
                static_cast<double>(build_ns)),
          "ratio"}},
        {"sim.cells_per_s",
         {ratio(sim_delta("sim.grid.cells_evaluated"), build_ns / 1e9), "1/s"}},
        {"sim.unique_row_ratio",
         {ratio(sim_delta("sim.grid.unique_rows"),
                sim_delta("sim.grid.samples_evaluated")),
          "ratio"}},
        {"sim.profile_hit_ratio",
         {ratio(profile_hits, profile_hits + profile_misses), "ratio"}},
        {"core.analysis_us", {core.value(), "us"}},
        {"store.write_us", {write.value(), "us"}},
        {"store.bytes_per_request",
         {ratio(static_cast<double>(directoryBytes(dir.sub("scratch"))),
                static_cast<double>(sampled)),
          "B"}},
        {"store.warm_load_ms", {median(warm_load), "ms"}},
        {"exec.pool_wait_us",
         {ratio(static_cast<double>(after.poolWaitNs - before.poolWaitNs),
                static_cast<double>(after.poolWaits - before.poolWaits)) /
              1e3,
          "us"}},
        {"exec.steal_share",
         {ratio(delta("exec.steal.chunks_stolen"),
                delta("exec.pool.parallel_for_chunks")),
          "ratio"}},
        {"request.p99_us", {traced.percentileUs(0.99), "us"}},
        {"trace.overhead_p50_us",
         {traced.percentileUs(0.5) - untraced.percentileUs(0.5), "us"}},
        {"work.sim.grid.builds", {delta("sim.grid.builds"), "count"}},
        {"work.sim.grid.cells_evaluated",
         {delta("sim.grid.cells_evaluated"), "count"}},
        {"work.sim.grid.unique_rows", {delta("sim.grid.unique_rows"), "count"}},
        {"work.sim.grid.fixed_point_iterations",
         {delta("sim.grid.fixed_point_iterations"), "count"}},
        {"work.svc.analysis.inserts", {delta("svc.analysis.inserts"), "count"}},
        {"work.svc.analysis.evictions",
         {delta("svc.analysis.evictions"), "count"}},
        {"work.daemon.snapshot.grid_stores",
         {delta("daemon.snapshot.grid_stores"), "count"}},
        {"work.daemon.snapshot.analysis_stores",
         {delta("daemon.snapshot.analysis_stores"), "count"}},
        {"work.exec.pool.tasks_executed",
         {delta("exec.pool.tasks_executed"), "count"}},
    };

    const std::string base = (fs::path(workdir) / "perfbench-trace").string();
    fs::create_directories(base);
    const std::string stem = base + "/" + spec.name + "-seed" +
                             std::to_string(seed);
    trace.writeChromeTrace(stem + ".trace.json");
    const std::string table = trace.selfTimeTable();
    if (FILE *f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
        std::fputs(table.c_str(), f);
        std::fclose(f);
    }
    std::printf("traced prefix: %zu requests (untraced prefix %zu); %zu "
                "stage partition errors\n",
                traced.sent, untraced.sent, check.partitionErrors());
    std::printf("%s", table.c_str());
    std::printf("wrote %s.trace.json and %s.selftime.txt\n", stem.c_str(),
                stem.c_str());
    printResult(correct, tally.attempted, tally.failed, metrics);
    return correct ? 0 : 1;
}

/**
 * The --seed value: any decimal integer, however large or negative,
 * folded into 64 bits (wrapping), so every seed names one input set.
 */
std::uint64_t
parseSeed(const std::string &text)
{
    const bool negative = !text.empty() && text[0] == '-';
    const std::size_t first = negative ? 1 : 0;
    if (text.size() == first)
        fatal("option --seed expects an integer, got '", text, "'");
    std::uint64_t seed = 0;
    for (std::size_t i = first; i < text.size(); ++i) {
        if (text[i] < '0' || text[i] > '9')
            fatal("option --seed expects an integer, got '", text, "'");
        seed = seed * 10 + static_cast<std::uint64_t>(text[i] - '0');
    }
    return negative ? 0 - seed : seed;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("serve_bench");
    args.addOption("workload");
    args.addOption("seed");
    args.addOption("seconds");
    args.addOption("trace");
    args.addOption("workdir");
    try {
        args.parse(argc, argv);
        const std::string name = args.get("workload", "");
        const WorkloadSpec *spec = nullptr;
        for (const WorkloadSpec &w : kWorkloads) {
            if (name == w.name)
                spec = &w;
        }
        if (spec == nullptr)
            fatal("unknown --workload '", name,
                  "' (warm_zipf, cold_build)");
        const std::uint64_t seed = parseSeed(args.get("seed", "1"));
        const double seconds =
            static_cast<double>(args.getInt("seconds", 20, 1, 60));
        const bool traced = args.getInt("trace", 0, 0, 1) == 1;
        const std::string workdir = args.get("workdir", ".bench_build");
        return traced ? runTraced(*spec, seed, seconds, workdir)
                      : runEndToEnd(*spec, seed, seconds, workdir);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "serve_bench: %s\n", err.what());
        return 2;
    }
}

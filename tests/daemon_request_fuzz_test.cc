/**
 * @file
 * Request-boundary fuzz of TuningDaemon.  Seeded random requests pick
 * budgets and thresholds from edge values (NaN, infinities, denormals,
 * huge values, values just outside the valid range) over a 6-sample
 * and a 1-sample workload on the two- and three-domain coarse spaces.
 * Some rounds submit from two threads at once, some call drain()
 * mid-stream, some run a queue small enough to shed.
 *
 * Invalid budgets and thresholds throw FatalError inside the analysis
 * stage, which may run on the batcher thread; an exception escaping
 * there would end the process.  So: nothing aborts, every future has
 * resolved when drain() returns, with a result, a shed or a
 * FatalError, the daemon's counts add up, every result is bit-equal
 * to a direct service's, and every request the daemon failed fails on
 * a direct service too.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "daemon/tuning_daemon.hh"

namespace mcdvfs
{
namespace
{

using daemon::DaemonOptions;
using daemon::DaemonResponse;
using daemon::DaemonStats;
using daemon::ShedReason;
using daemon::TuningDaemon;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

const std::vector<double> &
budgets()
{
    static const std::vector<double> values = {
        1.0, 1.3, kInf, 1e308, kNaN, -1.0, 0.0, std::nextafter(1.0, 0.0)};
    return values;
}

const std::vector<double> &
thresholds()
{
    static const std::vector<double> values = {
        0.0, -0.0, 0.03, kDenorm, kInf, 1e308, kNaN, -kDenorm, 2.0};
    return values;
}

/** The same sampler as daemon_tuning_daemon_test's fastConfig(). */
SystemConfig
fastConfig()
{
    SystemConfig config;
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    return config;
}

WorkloadProfile
workload(std::size_t samples)
{
    PhaseSpec cpu;
    cpu.name = "cpu";
    cpu.hotFrac = 0.98;
    cpu.warmFrac = 0.015;
    PhaseSpec mem;
    mem.name = "mem";
    mem.hotFrac = 0.80;
    mem.warmFrac = 0.10;
    mem.coldSeqFrac = 0.3;
    return WorkloadProfile(
        samples > 1 ? "six" : "one", samples,
        [cpu, mem](std::size_t s) { return s % 2 ? mem : cpu; }, 5,
        /*jitter=*/0.0);
}

/** One fuzzed request, by its indices into the value tables. */
struct Pick
{
    std::size_t workload;
    std::size_t space;
    std::size_t budget;
    std::size_t threshold;

    auto tie() const { return std::tie(workload, space, budget, threshold); }
    bool operator<(const Pick &other) const { return tie() < other.tie(); }
};

/** Every bit of a result that a request determines. */
std::uint64_t
digestOf(const svc::TuningResult &result)
{
    HashBuilder h;
    const auto add_double = [&h](double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        h.add(bits);
    };
    h.add(static_cast<std::uint64_t>(result.optimal.size()));
    for (const OptimalChoice &choice : result.optimal) {
        h.add(static_cast<std::uint64_t>(choice.settingIndex));
        add_double(choice.speedup);
        add_double(choice.inefficiency);
    }
    h.add(static_cast<std::uint64_t>(result.clusters.size()));
    for (const PerformanceCluster &cluster : result.clusters) {
        h.add(static_cast<std::uint64_t>(cluster.settings.size()));
        for (const std::size_t setting : cluster.settings)
            h.add(static_cast<std::uint64_t>(setting));
    }
    h.add(static_cast<std::uint64_t>(result.regions.size()));
    for (const StableRegion &region : result.regions) {
        h.add(static_cast<std::uint64_t>(region.first));
        h.add(static_cast<std::uint64_t>(region.last));
        h.add(static_cast<std::uint64_t>(region.chosenSettingIndex));
    }
    return h.digest();
}

/** How one future resolved. */
struct Outcome
{
    enum Kind
    {
        Result,
        Shed,
        Failed,
    } kind = Failed;
    std::uint64_t digest = 0;
};

class RequestFuzz : public ::testing::Test
{
  protected:
    RequestFuzz()
        : workloads_{workload(6), workload(1)},
          spaces_{SettingsSpace::coarse(), SettingsSpace::coarse3()}
    {
    }

    svc::TuningRequest
    request(const Pick &pick) const
    {
        return svc::TuningRequest{
            workloads_[pick.workload], spaces_[pick.space],
            budgets()[pick.budget], thresholds()[pick.threshold]};
    }

    Pick
    draw(Rng &rng) const
    {
        return Pick{rng.uniformInt(workloads_.size()),
                    rng.uniformInt(spaces_.size()),
                    rng.uniformInt(budgets().size()),
                    rng.uniformInt(thresholds().size())};
    }

    /** The direct service's outcome of @c pick, computed once. */
    const Outcome &
    expected(const Pick &pick)
    {
        const auto it = direct_.find(pick);
        if (it != direct_.end())
            return it->second;
        Outcome outcome;
        try {
            outcome.digest = digestOf(service_.submit(request(pick)));
            outcome.kind = Outcome::Result;
        } catch (const FatalError &) {
            outcome.kind = Outcome::Failed;
        }
        return direct_.emplace(pick, outcome).first->second;
    }

    std::vector<WorkloadProfile> workloads_;
    std::vector<SettingsSpace> spaces_;
    svc::CharacterizationService service_{fastConfig()};
    std::map<Pick, Outcome> direct_;
};

TEST_F(RequestFuzz, EveryRequestResolvesAndCountsAddUp)
{
    constexpr int kRounds = 6;
    constexpr std::size_t kPerRound = 60;
    Rng rng(0xf022'5eedull);
    std::size_t results = 0;
    std::size_t failures = 0;

    for (int round = 0; round < kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::size_t threads = round % 2 == 1 ? 2 : 1;
        const bool drain_mid_stream = round % 3 == 2;
        DaemonOptions options;
        options.service.jobs = 2;
        // Small batches keep the batcher running while the stream is
        // still being submitted; round 3's queue is small enough that
        // a tight submit loop sheds.
        options.maxBatch = std::size_t{1} << round;
        if (round == 3)
            options.queueCapacity = 8;
        TuningDaemon daemon(fastConfig(), options);

        std::vector<Pick> picks;
        for (std::size_t i = 0; i < kPerRound; ++i)
            picks.push_back(draw(rng));
        std::vector<std::future<DaemonResponse>> futures(kPerRound);

        // Thread t submits every threads-th request from t; in a drain
        // round, thread 0 drains halfway through its share while the
        // other keeps submitting.
        const auto submit_share = [&](std::size_t t) {
            std::size_t sent = 0;
            for (std::size_t i = t; i < kPerRound; i += threads) {
                futures[i] = daemon.submit(request(picks[i]));
                if (t == 0 && drain_mid_stream &&
                    ++sent == kPerRound / threads / 2)
                    daemon.drain();
            }
        };
        std::vector<std::thread> submitters;
        for (std::size_t t = 0; t < threads; ++t)
            submitters.emplace_back(submit_share, t);
        for (std::thread &submitter : submitters)
            submitter.join();
        daemon.drain();
        // drain() returns only once every admitted request is resolved.
        for (std::size_t i = 0; i < kPerRound; ++i) {
            ASSERT_TRUE(futures[i].valid());
            EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "request " << i;
        }

        std::size_t served = 0;
        std::size_t shed = 0;
        std::size_t failed = 0;
        for (std::size_t i = 0; i < kPerRound; ++i) {
            ASSERT_TRUE(futures[i].valid());
            Outcome outcome;
            try {
                const DaemonResponse response = futures[i].get();
                if (response.ok()) {
                    ASSERT_NE(response.result.grid, nullptr);
                    outcome.kind = Outcome::Result;
                    outcome.digest = digestOf(response.result);
                    ++served;
                } else {
                    EXPECT_TRUE(response.shed == ShedReason::QueueFull ||
                                response.shed == ShedReason::Draining);
                    outcome.kind = Outcome::Shed;
                    ++shed;
                }
            } catch (const FatalError &) {
                outcome.kind = Outcome::Failed;
                ++failed;
            } catch (...) {
                ADD_FAILURE() << "request " << i
                              << " resolved with an unexpected exception";
                continue;
            }
            if (outcome.kind == Outcome::Shed)
                continue;
            const Outcome &want = expected(picks[i]);
            EXPECT_EQ(outcome.kind, want.kind) << "request " << i;
            EXPECT_EQ(outcome.digest, want.digest) << "request " << i;
        }

        const DaemonStats stats = daemon.stats();
        EXPECT_EQ(stats.admitted, stats.completed + stats.failed);
        EXPECT_EQ(kPerRound,
                  stats.admitted + stats.shedQueueFull + stats.shedDraining);
        EXPECT_EQ(served, stats.completed);
        EXPECT_EQ(failed, stats.failed);
        EXPECT_EQ(shed, stats.shedQueueFull + stats.shedDraining);
        results += served;
        failures += failed;
    }
    // The edge values cover both sides of validation.
    EXPECT_GT(results, 0u);
    EXPECT_GT(failures, 0u);
}

} // namespace
} // namespace mcdvfs

/**
 * @file
 * Unit tests for the obs metrics layer: registration semantics,
 * counter/gauge/histogram behavior, ScopedTimer, reset, the lock-free
 * striped write path under concurrent writers, and OwnedCounter (one
 * add moves an object's own count and its series).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace mcdvfs
{
namespace
{

// The whole file asserts live values, so it only makes sense in
// instrumented builds; MCDVFS_METRICS=OFF compiles mutators away.
#define REQUIRE_METRICS_ON()                                           \
    if (!obs::kMetricsEnabled)                                         \
    GTEST_SKIP() << "metrics disabled in this build"

TEST(ObsCounter, AddAndValue)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Counter counter = reg.counter("c");
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(ObsCounter, DefaultHandleIsInertNotCrashing)
{
    obs::Counter counter;
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);
    obs::Gauge gauge;
    gauge.set(3);
    gauge.add(-1);
    EXPECT_EQ(gauge.value(), 0);
    obs::Histogram histogram;
    histogram.record(1);
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(histogram.sum(), 0u);
}

TEST(ObsRegistry, RegistrationIsIdempotentByName)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Counter a = reg.counter("same");
    obs::Counter b = reg.counter("same");
    a.add(1);
    b.add(2);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, KindMismatchThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("name");
    EXPECT_THROW(reg.gauge("name"), FatalError);
    EXPECT_THROW(
        reg.histogram("name", obs::MetricsRegistry::latencyBucketsNs()),
        FatalError);
}

TEST(ObsRegistry, HistogramBoundsMismatchThrows)
{
    obs::MetricsRegistry reg;
    reg.histogram("h", {10, 20});
    EXPECT_NO_THROW(reg.histogram("h", {10, 20}));
    EXPECT_THROW(reg.histogram("h", {10, 30}), FatalError);
    EXPECT_THROW(reg.histogram("bad", {20, 10}), FatalError);
}

TEST(ObsGauge, SetAndAddBothWays)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Gauge gauge = reg.gauge("g");
    gauge.set(10);
    gauge.add(-3);
    gauge.add(1);
    EXPECT_EQ(gauge.value(), 8);
    gauge.set(-5);
    EXPECT_EQ(gauge.value(), -5);
}

TEST(ObsHistogram, BucketsByUpperBound)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Histogram histogram = reg.histogram("h", {10, 100});
    histogram.record(0);    // <= 10
    histogram.record(10);   // <= 10 (bounds are inclusive upper)
    histogram.record(11);   // <= 100
    histogram.record(101);  // overflow
    EXPECT_EQ(histogram.count(), 4u);
    EXPECT_EQ(histogram.sum(), 122u);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto &view = snap.histograms.front();
    ASSERT_EQ(view.counts.size(), 3u);  // bounds + overflow
    EXPECT_EQ(view.counts[0], 2u);
    EXPECT_EQ(view.counts[1], 1u);
    EXPECT_EQ(view.counts[2], 1u);
    EXPECT_EQ(view.count, 4u);
    EXPECT_EQ(view.sum, 122u);
}

TEST(ObsScopedTimer, RecordsOnceOnDestruction)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Histogram histogram =
        reg.histogram("t", obs::MetricsRegistry::latencyBucketsNs());
    {
        obs::ScopedTimer timer(histogram);
    }
    EXPECT_EQ(histogram.count(), 1u);
}

TEST(ObsScopedTimer, StopDisarmsDestructor)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Histogram histogram =
        reg.histogram("t", obs::MetricsRegistry::latencyBucketsNs());
    {
        obs::ScopedTimer timer(histogram);
        timer.stop();
        timer.stop();  // idempotent
    }
    EXPECT_EQ(histogram.count(), 1u);
}

TEST(ObsRegistry, ResetZeroesButKeepsNames)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Counter counter = reg.counter("c");
    obs::Gauge gauge = reg.gauge("g");
    obs::Histogram histogram = reg.histogram("h", {10});
    counter.add(5);
    gauge.set(7);
    histogram.record(3);

    reg.reset();

    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(histogram.sum(), 0u);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(ObsSnapshot, SortedByName)
{
    obs::MetricsRegistry reg;
    reg.counter("zebra");
    reg.counter("alpha");
    reg.counter("middle");
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[1].first, "middle");
    EXPECT_EQ(snap.counters[2].first, "zebra");
}

TEST(ObsLogBridge, WarnAndInformIncrementGlobalCounters)
{
    REQUIRE_METRICS_ON();
    // Touching the global registry installs the log counter hook.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter warnings = reg.counter("common.log.warnings");
    obs::Counter informs = reg.counter("common.log.informs");

    // Counting happens before level filtering, so a silenced channel
    // still accounts for every emission.
    const LogLevel previous = logLevel();
    setLogLevel(LogLevel::Silent);
    const std::uint64_t warn_before = warnings.value();
    const std::uint64_t inform_before = informs.value();
    warn("counted even when silent");
    warn("twice");
    inform("and informs too");
    setLogLevel(previous);

    EXPECT_EQ(warnings.value(), warn_before + 2);
    EXPECT_EQ(informs.value(), inform_before + 1);
}

TEST(ObsStripes, ThreadStripeIsStableAndBounded)
{
    const std::size_t first = obs::threadStripe();
    EXPECT_LT(first, obs::kStripes);
    EXPECT_EQ(obs::threadStripe(), first);
}

TEST(ObsStripes, ConcurrentCountersLoseNothing)
{
    REQUIRE_METRICS_ON();
    obs::MetricsRegistry reg;
    obs::Counter counter = reg.counter("c");
    obs::Histogram histogram = reg.histogram("h", {100});

    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 5'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                counter.add(1);
                histogram.record(i % 7);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    EXPECT_EQ(histogram.count(), kThreads * kPerThread);
    // sum of i%7 over i in [0,5000): 714 cycles of 21 plus 0+1 = 14995.
    EXPECT_EQ(histogram.sum(), kThreads * 14'995u);
}

/** A global-registry counter series, labeled when @c labels is set. */
obs::Counter
series(const std::string &name, const obs::MetricLabels &labels = {})
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    return labels.empty() ? reg.counter(name) : reg.counter(name, labels);
}

// The owned half of an OwnedCounter is live in every build, so these
// tests run with metrics compiled out too; only the series checks
// need instrumentation.

TEST(ObsOwnedCounter, AddMovesTheOwnedValueAndItsSeries)
{
    const obs::Counter total = series("test.owned.add");
    const std::uint64_t total0 = total.value();
    obs::OwnedCounter owned("test.owned.add");
    EXPECT_EQ(owned.value(), 0u);
    owned.add();
    owned.add(41);
    EXPECT_EQ(owned.value(), 42u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(total.value() - total0, 42u);
    }
}

TEST(ObsOwnedCounter, LabeledOwnerFeedsItsLabeledSeries)
{
    const obs::Counter labeled =
        series("test.owned.shed", {{"reason", "full"}});
    const obs::Counter unlabeled = series("test.owned.shed");
    const std::uint64_t labeled0 = labeled.value();
    const std::uint64_t unlabeled0 = unlabeled.value();

    obs::OwnedCounter owned("test.owned.shed", {{"reason", "full"}});
    owned.add(3);
    EXPECT_EQ(owned.value(), 3u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(labeled.value() - labeled0, 3u);
    }
    EXPECT_EQ(unlabeled.value(), unlabeled0);
}

TEST(ObsOwnedCounter, OwnersOfOneSeriesEachKeepTheirOwnCount)
{
    const obs::Counter total = series("test.owned.shared");
    const std::uint64_t total0 = total.value();
    obs::OwnedCounter first("test.owned.shared");
    obs::OwnedCounter second("test.owned.shared");
    first.add(2);
    second.add(5);
    EXPECT_EQ(first.value(), 2u);
    EXPECT_EQ(second.value(), 5u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(total.value() - total0, 7u);
    }
}

TEST(ObsOwnedCounter, ConcurrentAddsSumExactly)
{
    const obs::Counter total = series("test.owned.concurrent");
    const std::uint64_t total0 = total.value();
    obs::OwnedCounter owned("test.owned.concurrent");

    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 10'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                owned.add();
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(owned.value(), kThreads * kPerThread);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(total.value() - total0, kThreads * kPerThread);
    }
}

} // namespace
} // namespace mcdvfs

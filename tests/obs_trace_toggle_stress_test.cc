/**
 * @file
 * Concurrency stress tests for runtime trace toggling (ctest label
 * "stress"; part of the TSan subset in scripts/sanitize.sh): writer
 * threads recording spans and instants — with per-thread
 * ScopedTraceContext request ids installed and restored — while
 * another thread flips TraceCollector::enable()/disable() and a
 * reader snapshots concurrently.  Every observed event must be
 * internally consistent regardless of where the toggle landed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/trace.hh"

namespace mcdvfs
{
namespace obs
{
namespace
{

constexpr std::size_t kWriters = 6;
constexpr std::size_t kRingCapacity = 512;

TEST(TraceToggleStress, EnableDisableRacesWritersAndReaders)
{
    if (!kTracingEnabled)
        GTEST_SKIP() << "tracing disabled in this build";

    TraceCollector collector;
    collector.enable(kRingCapacity);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> recorded{0};

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (std::size_t t = 0; t < kWriters; ++t) {
        writers.emplace_back([&collector, &stop, &recorded, t] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                // The collector under test is local, so record
                // explicitly (TraceSpan binds to the global); the
                // context round-trip still exercises the thread-local
                // install/restore against concurrent toggles.
                TraceContext context;
                context.requestId = t * 1'000'000 + i + 1;
                context.classId = t;
                ScopedTraceContext scope(context);
                const std::uint64_t id =
                    currentTraceContext().requestId;
                collector.record('X', "toggle.span", i, 10, id, id);
                collector.record('i', "toggle.instant", i, 0, id, id);
                recorded.fetch_add(2, std::memory_order_relaxed);
                ++i;
            }
            // The scope restored the empty ambient context.
            EXPECT_EQ(currentTraceContext().requestId, 0u);
        });
    }

    std::thread toggler([&collector, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            collector.disable();
            std::this_thread::yield();
            collector.enable(kRingCapacity);
            std::this_thread::yield();
        }
        collector.enable(kRingCapacity);
    });

    // Read for 200 rounds and until a first event was seen: on a slow
    // (sanitized) build the rounds can all run before any writer has
    // recorded.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::uint64_t consistent = 0;
    for (int round = 0; round < 200 || consistent == 0; ++round) {
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "reader saw " << consistent
                          << " events in " << round
                          << " rounds before its 10 s deadline";
            break;
        }
        const TraceSnapshot snap = collector.snapshot();
        for (const TraceEventView &event : snap.events) {
            ASSERT_NE(event.name, nullptr);
            ASSERT_TRUE(event.phase == 'X' || event.phase == 'i');
            if (event.phase == 'i') {
                ASSERT_EQ(event.durNs, 0u);
            }
            // Only the six writers record during this loop, so ring
            // (tid) assignment stays below kWriters whatever the
            // registration order.
            ASSERT_LT(event.tid, kWriters);
            // arg and flow carry the same request id: a torn record
            // would disagree.
            ASSERT_NE(event.flowId, 0u);
            ASSERT_EQ(event.flowId, event.arg);
        }
        consistent += snap.events.size();
        std::this_thread::yield();
    }

    stop.store(true, std::memory_order_relaxed);
    for (std::thread &writer : writers)
        writer.join();
    toggler.join();

    EXPECT_GT(recorded.load(), 0u);
    EXPECT_GT(consistent, 0u);

    // Quiescent now and enabled: a final record must land.
    const std::uint64_t before = collector.snapshot().events.size();
    collector.record('i', "toggle.final", 1, 0, 1, 0);
    EXPECT_GT(collector.snapshot().events.size(), before);
}

TEST(TraceToggleStress, GlobalSpanSitesSurviveToggles)
{
    if (!kTracingEnabled)
        GTEST_SKIP() << "tracing disabled in this build";

    // The global collector: exactly what instrumented library sites
    // use.  TraceSpan/traceInstant must stay safe while another
    // thread toggles recording, whatever state they observe.
    TraceCollector &global = TraceCollector::global();
    std::atomic<bool> stop{false};

    std::thread toggler([&stop, &global] {
        while (!stop.load(std::memory_order_relaxed)) {
            global.enable(kRingCapacity);
            std::this_thread::yield();
            global.disable();
            std::this_thread::yield();
        }
        global.disable();
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (std::size_t t = 0; t < kWriters; ++t) {
        writers.emplace_back([&stop, t] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                TraceContext context;
                context.requestId = t + 1;
                ScopedTraceContext scope(context);
                TraceSpan span("toggle.global_span", i);
                traceInstant("toggle.global_instant", i);
                ++i;
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &writer : writers)
        writer.join();
    toggler.join();

    // Whatever was captured is readable and consistent.
    const TraceSnapshot snap = global.snapshot();
    for (const TraceEventView &event : snap.events) {
        ASSERT_NE(event.name, nullptr);
        ASSERT_TRUE(event.phase == 'X' || event.phase == 'i');
    }
}

} // namespace
} // namespace obs
} // namespace mcdvfs

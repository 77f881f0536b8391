/**
 * @file
 * Work-stealing stress tests for ThreadPool::parallelFor (ctest label
 * "stress"): skewed chunk costs, exactly-once execution under heavy
 * stealing, nested loops stealing from each other, exception delivery
 * from stolen chunks, and the exec.steal.* counters.  Sizes are modest
 * enough for a single-core CI machine; all randomness is seeded.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"
#include "obs/metrics.hh"

namespace mcdvfs
{
namespace
{

std::uint64_t
counterValue(const char *name)
{
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    for (const auto &[key, value] : snapshot.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

TEST(ThreadPoolSteal, SkewedChunkCostsRunEveryIndexOnce)
{
    // One strip starts with a pathologically slow chunk; the other
    // participants must drain their strips and then steal the slow
    // strip's parked remainder instead of idling.  Every index runs
    // exactly once no matter who ends up owning it.
    exec::ThreadPool pool(4);
    constexpr std::size_t kRange = 256;
    std::vector<std::atomic<int>> visits(kRange);
    for (auto &v : visits)
        v.store(0);

    pool.parallelFor(
        0, kRange,
        [&](std::size_t i) {
            if (i == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            visits[i].fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/2);

    for (std::size_t i = 0; i < kRange; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolSteal, RandomCostsExactlyOnceAcrossManyLoops)
{
    // Seeded random per-index busy-work over repeated loops: stealing
    // must never duplicate or drop an index regardless of how the
    // strips get carved up.
    exec::ThreadPool pool(3);
    constexpr std::size_t kRange = 500;
    constexpr int kLoops = 20;
    std::mt19937_64 rng(99);
    std::vector<std::uint32_t> cost(kRange);
    for (auto &c : cost)
        c = static_cast<std::uint32_t>(rng() % 64);

    for (int loop = 0; loop < kLoops; ++loop) {
        std::vector<std::atomic<int>> visits(kRange);
        for (auto &v : visits)
            v.store(0);
        std::atomic<std::uint64_t> sink{0};
        pool.parallelFor(
            0, kRange,
            [&](std::size_t i) {
                std::uint64_t acc = i;
                for (std::uint32_t k = 0; k < cost[i] * 100; ++k)
                    acc = acc * 6364136223846793005ull + 1;
                sink.fetch_add(acc, std::memory_order_relaxed);
                visits[i].fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/3);
        for (std::size_t i = 0; i < kRange; ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "loop " << loop << " index " << i;
    }
}

TEST(ThreadPoolSteal, NestedLoopsStealWithoutDeadlock)
{
    // Outer chunks each run an inner parallelFor on the same pool;
    // inner strips are stolen by workers that finished other outer
    // chunks.  The count must come out exact and the test must not
    // hang (caller participation keeps nested loops live).
    exec::ThreadPool pool(4);
    constexpr std::size_t kOuter = 24;
    constexpr std::size_t kInner = 96;
    std::atomic<std::uint64_t> count{0};
    pool.parallelFor(0, kOuter, [&](std::size_t) {
        pool.parallelFor(
            0, kInner,
            [&](std::size_t) {
                count.fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/5);
    });
    EXPECT_EQ(count.load(), kOuter * kInner);
}

TEST(ThreadPoolSteal, ExceptionFromStolenChunkPropagates)
{
    // The throwing index lives at the back of the range, where it is
    // likely to be stolen; whoever runs it, the documented contract
    // holds: the first error is rethrown after the range completes.
    exec::ThreadPool pool(4);
    constexpr std::size_t kRange = 300;
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(
        pool.parallelFor(
            0, kRange,
            [&](std::size_t i) {
                if (i == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                ++visited;
                if (i == kRange - 1)
                    throw std::runtime_error("stolen boom");
            },
            /*grain=*/2),
        std::runtime_error);
    EXPECT_EQ(visited.load(), kRange);
}

TEST(ThreadPoolSteal, ConcurrentLoopsFromClientThreads)
{
    // Several client threads each run their own parallelFor on one
    // shared pool; strips of different loops coexist and every loop's
    // sum must match the serial result.
    exec::ThreadPool pool(3);
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRange = 400;
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kRange; ++i)
        expected += i;

    std::vector<std::thread> clients;
    std::vector<std::uint64_t> sums(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&pool, &sums, c] {
            std::atomic<std::uint64_t> sum{0};
            pool.parallelFor(
                0, kRange,
                [&sum](std::size_t i) {
                    sum.fetch_add(i, std::memory_order_relaxed);
                },
                /*grain=*/7);
            sums[c] = sum.load();
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(sums[c], expected) << "client " << c;
}

TEST(ThreadPoolSteal, StealCountersAdvance)
{
    // With helpers in play every participant sweeps the other strips
    // at least once before exiting, so the attempts counter must
    // advance; chunks_stolen never exceeds the chunks of the loop.
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "metrics disabled in this build";
    exec::ThreadPool pool(2);
    const std::uint64_t attempts_before =
        counterValue("exec.steal.attempts");
    const std::uint64_t stolen_before =
        counterValue("exec.steal.chunks_stolen");
    pool.parallelFor(
        0, 128,
        [](std::size_t i) {
            if (i < 4)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
        },
        /*grain=*/1);
    EXPECT_GT(counterValue("exec.steal.attempts"), attempts_before);
    EXPECT_LE(counterValue("exec.steal.chunks_stolen") - stolen_before,
              128u);
}

TEST(ThreadPoolSteal, SerialPoolStillCompletes)
{
    // Zero workers: one strip, no stealing, plain serial execution.
    exec::ThreadPool pool(0);
    std::uint64_t sum = 0;
    pool.parallelFor(0, 100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
    // A worker-less loop must not count steal attempts.
}

} // namespace
} // namespace mcdvfs

/**
 * @file
 * Unit tests for the host-parallel worker pool: full index coverage,
 * reuse across submissions, exception propagation, and thread-count
 * resolution.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    common::ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    constexpr std::size_t n = 10000;
    std::vector<int> hits(n, 0);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossSubmissions)
{
    common::ThreadPool pool(3);
    std::atomic<long> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(100, [&](std::size_t i) {
            sum.fetch_add(static_cast<long>(i),
                          std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), 50L * (99L * 100L / 2L));
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    common::ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable)
{
    common::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(1000,
                                  [&](std::size_t i) {
                                      if (i == 17)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);

    // The pool must survive a throwing job.
    std::atomic<int> count{0};
    pool.parallelFor(64, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, EmptyAndSingletonJobs)
{
    common::ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolConfig, ResolveThreadCount)
{
    unsetenv("VPPS_HOST_THREADS");
    EXPECT_EQ(common::resolveThreadCount(3), 3);
    EXPECT_EQ(common::resolveThreadCount(0), 1);
    EXPECT_EQ(common::resolveThreadCount(-2), 1);

    setenv("VPPS_HOST_THREADS", "6", 1);
    EXPECT_EQ(common::resolveThreadCount(0), 6);
    // An explicit request wins over the environment.
    EXPECT_EQ(common::resolveThreadCount(2), 2);

    setenv("VPPS_HOST_THREADS", "garbage", 1);
    EXPECT_EQ(common::resolveThreadCount(0), 1);
    unsetenv("VPPS_HOST_THREADS");
}

TEST(ThreadPoolConfig, OutsideCountsAreCheckedAndCapped)
{
    // Only the resolved count is checked: no pool is ever built with
    // one of these.
    unsetenv("VPPS_HOST_THREADS");
    EXPECT_EQ(common::resolveThreadCount(common::kMaxHostThreads),
              common::kMaxHostThreads);
    EXPECT_EQ(common::resolveThreadCount(100000),
              common::kMaxHostThreads);

    // The environment must be wholly a positive integer.
    for (const char* bad : {"8x", " 8", "+8", "-8", "0", "", "1e3"}) {
        setenv("VPPS_HOST_THREADS", bad, 1);
        EXPECT_EQ(common::resolveThreadCount(0), 1) << "'" << bad << "'";
    }
    setenv("VPPS_HOST_THREADS", "100000", 1);
    EXPECT_EQ(common::resolveThreadCount(0), common::kMaxHostThreads);
    setenv("VPPS_HOST_THREADS", "99999999999999999999999", 1);
    EXPECT_EQ(common::resolveThreadCount(0), common::kMaxHostThreads);
    setenv("VPPS_HOST_THREADS", "256", 1);
    EXPECT_EQ(common::resolveThreadCount(0), 256);
    unsetenv("VPPS_HOST_THREADS");
}

} // namespace

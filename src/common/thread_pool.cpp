#include "common/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hpp"

namespace common {

namespace {

/** VPPS_HOST_THREADS when it is wholly a positive integer, else 0. */
long long
envThreadCount()
{
    const char* env = std::getenv("VPPS_HOST_THREADS");
    if (env == nullptr)
        return 0;
    const char* end = env + std::strlen(env);
    long long v = 0;
    const auto [stop, ec] = std::from_chars(env, end, v);
    if (ec == std::errc::result_out_of_range && stop == end && *env != '-')
        return std::numeric_limits<long long>::max();
    if (ec != std::errc() || stop != end || v <= 0) {
        warn("ignoring VPPS_HOST_THREADS='", env,
             "': not a positive integer");
        return 0;
    }
    return v;
}

} // namespace

int
resolveThreadCount(int requested)
{
    const long long threads =
        requested > 0 ? requested : envThreadCount();
    if (threads <= 0)
        return 1;
    if (threads > kMaxHostThreads) {
        warn("host thread count ", threads, " capped at ",
             kMaxHostThreads);
        return kMaxHostThreads;
    }
    return static_cast<int>(threads);
}

ThreadPool::ThreadPool(int threads)
{
    const int workers = threads - 1;
    workers_.reserve(static_cast<std::size_t>(workers > 0 ? workers : 0));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

void
ThreadPool::runShare()
{
    for (;;) {
        const std::size_t i =
            job_next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_size_)
            return;
        try {
            (*job_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
            // Skip the remaining unstarted indices.
            job_next_.store(job_size_, std::memory_order_relaxed);
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
        }
        runShare();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--active_workers_ == 0)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& fn)
{
    if (workers_.empty() || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        job_size_ = n;
        job_next_.store(0, std::memory_order_relaxed);
        first_error_ = nullptr;
        active_workers_ = static_cast<int>(workers_.size());
        ++generation_;
    }
    start_cv_.notify_all();
    runShare();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return active_workers_ == 0; });
        job_ = nullptr;
        job_size_ = 0;
        error = first_error_;
        first_error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace common

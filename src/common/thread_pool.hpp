/**
 * @file
 * Persistent worker pool for host-parallel simulation.
 *
 * The script interpreter executes independent per-VPP instruction
 * segments of one barrier phase concurrently (see
 * vpps::ScriptExecutor). Phases are short -- often a few microseconds
 * of host work -- so spawning threads per phase would dominate; this
 * pool keeps its workers alive across submissions and hands out work
 * through a single atomic index.
 *
 * Determinism contract: parallelFor() gives no ordering or placement
 * guarantee between indices. Callers that need results independent of
 * the worker count (the interpreter does: threads=1 and threads=N must
 * be bitwise identical) must write into per-index sinks and reduce
 * them on the calling thread in a fixed order afterwards.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace common {

/** Upper bound on resolved host threads. Results are bitwise
 *  identical at any thread count, so the cap moves no output. */
inline constexpr int kMaxHostThreads = 256;

/**
 * Resolve a host-thread-count request: an explicit positive request
 * wins; otherwise the VPPS_HOST_THREADS environment variable when it
 * is wholly a positive integer (anything else is ignored with a
 * warning); otherwise 1 (the serial path). Either source is capped at
 * kMaxHostThreads, with a warning.
 */
int resolveThreadCount(int requested);

/** A fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /**
     * @param threads total concurrency including the calling thread;
     * a pool of size N spawns N - 1 workers. Values below 1 clamp
     * to 1 (no workers: parallelFor runs inline).
     */
    explicit ThreadPool(int threads);

    /** Joins all workers. Must not race with a parallelFor() call. */
    ~ThreadPool();

    /** Total concurrency (workers + the calling thread). */
    int threads() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, n), distributed over the workers
     * and the calling thread; blocks until all indices finished.
     *
     * If any invocation throws, the first exception (in completion
     * order) is rethrown here after all workers have drained; the
     * remaining unstarted indices are skipped. The pool stays usable
     * for further submissions afterwards. Not reentrant: fn must not
     * call parallelFor on the same pool.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

  private:
    void workerLoop();

    /** Claim and run indices until the job is exhausted. */
    void runShare();

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;

    // Current job, guarded by mutex_ (job_next_ is the hand-out
    // counter workers hit concurrently).
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t job_size_ = 0;
    std::atomic<std::size_t> job_next_{0};
    std::uint64_t generation_ = 0;
    int active_workers_ = 0;
    std::exception_ptr first_error_;
    bool stop_ = false;
};

} // namespace common

/**
 * @file
 * Host/device execution-asynchrony model (Section III-C1).
 *
 * While the GPU runs batch i's forward-backward kernel, the CPU
 * builds the graph and generates the script for batch i+1, then
 * synchronizes only to reuse the pinned script staging buffer. The
 * pipeline simulator composes per-batch CPU and GPU durations into a
 * wall-clock makespan under either the asynchronous (pipelined) or
 * synchronous regime; the difference is the ablation of
 * bench/ablation_async.
 */
#pragma once

namespace vpps {

/** Durations of one batch's two pipeline stages. */
struct BatchTiming
{
    double cpu_us = 0.0; //!< graph build + scheduling + transfer prep
    double gpu_us = 0.0; //!< kernel (+ extra kernels)
};

/** Online two-stage pipeline clock. */
class AsyncPipeline
{
  public:
    /** @param async false forces synchronous host/device operation. */
    explicit AsyncPipeline(bool async) : async_(async) {}

    /** Account one batch; returns this batch's GPU completion time. */
    double submit(const BatchTiming& timing);

    /** Wall-clock time at which all submitted work completes, us. */
    double makespanUs() const { return gpu_free_; }

    /** CPU-side clock (time the host has spent / waited), us. */
    double cpuClockUs() const { return cpu_clock_; }

    /** Block the host until the device drains
     *  (sync_get_latest_loss). */
    void sync() { cpu_clock_ = gpu_free_ > cpu_clock_ ? gpu_free_
                                                      : cpu_clock_; }

    void reset();

  private:
    bool async_;
    double cpu_clock_ = 0.0;
    double gpu_free_ = 0.0;
};

} // namespace vpps

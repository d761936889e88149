#include "vpps/pipeline.hpp"

#include <algorithm>

namespace vpps {

double
AsyncPipeline::submit(const BatchTiming& timing)
{
    if (async_) {
        // The host prepares batch i+1 while the device runs batch i;
        // it blocks only when the device is still busy at submission
        // time (pinned-buffer reuse, Section III-C1).
        cpu_clock_ += timing.cpu_us;
        const double start = std::max(cpu_clock_, gpu_free_);
        cpu_clock_ = start; // host waits for the pinned buffer
        gpu_free_ = start + timing.gpu_us;
    } else {
        cpu_clock_ = std::max(cpu_clock_, gpu_free_) + timing.cpu_us;
        gpu_free_ = cpu_clock_ + timing.gpu_us;
    }
    return gpu_free_;
}

void
AsyncPipeline::reset()
{
    cpu_clock_ = 0.0;
    gpu_free_ = 0.0;
}

} // namespace vpps

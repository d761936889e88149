#include "gpusim/persistent_sim.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace gpusim {

PersistentSim::PersistentSim(const DeviceSpec& spec, int num_vpps,
                             int ctas_per_sm)
    : spec_(spec), num_vpps_(num_vpps), ctas_per_sm_(ctas_per_sm),
      vpp_time_(static_cast<std::size_t>(num_vpps), 0.0)
{
    if (num_vpps <= 0)
        common::panic("PersistentSim: num_vpps must be positive");
}

PersistentSim::Barrier&
PersistentSim::barrierAt(std::size_t barrier)
{
    if (barrier >= barriers_.size())
        barriers_.resize(barrier + 1);
    return barriers_[barrier];
}

void
PersistentSim::setExpectedSignals(std::size_t barrier, int count)
{
    barrierAt(barrier).expected = count;
}

void
PersistentSim::signal(std::size_t barrier, int vpp)
{
    // atomicAdd + __threadfence cost on the signaling VPP.
    charge(vpp, spec_.barrier_signal_us);
    Barrier& b = barrierAt(barrier);
    ++b.arrived;
    if (b.arrived > b.expected && b.expected > 0)
        common::panic("PersistentSim: barrier ", barrier, " over-signaled");
    b.release_time = std::max(b.release_time, timeOf(vpp));
    if (tracer_)
        tracer_->instant(vpp, "barrier", "signal",
                         trace_base_us_ + timeOf(vpp),
                         static_cast<std::int64_t>(barrier),
                         static_cast<double>(b.arrived),
                         static_cast<double>(b.expected));
}

void
PersistentSim::wait(std::size_t barrier, int vpp)
{
    if (!barrierReady(barrier))
        common::panic("PersistentSim: wait on unready barrier ", barrier);
    const Barrier& b = barriers_[barrier];
    // Spin-poll on the barrier word plus the per-phase
    // interpretation round (see DeviceSpec::barrier_wait_us).
    auto& t = vpp_time_[static_cast<std::size_t>(vpp)];
    const double before = t;
    t = std::max(t, b.release_time + spec_.barrier_wait_us);
    if (tracer_)
        tracer_->instant(vpp, "barrier", "wait",
                         trace_base_us_ + t,
                         static_cast<std::int64_t>(barrier),
                         t - before);
}

double
PersistentSim::makespan() const
{
    return *std::max_element(vpp_time_.begin(), vpp_time_.end());
}

double
PersistentSim::meanVppTime() const
{
    const double sum =
        std::accumulate(vpp_time_.begin(), vpp_time_.end(), 0.0);
    return sum / static_cast<double>(num_vpps_);
}

} // namespace gpusim

/**
 * @file
 * Timing simulation of one persistent-kernel invocation.
 *
 * VPPS launches a single forward-backward kernel whose CTAs never
 * terminate until the whole script has executed (persistent threads,
 * Section III). Each CTA -- a Virtual Persistent Processor (VPP) --
 * has its own timeline; VPPs interact only through global-memory
 * barriers implemented with atomicAdd + threadfence (Section III-B1).
 *
 * PersistentSim tracks one clock per VPP plus barrier state. The
 * script executor charges instruction durations onto VPP clocks and
 * resolves signal/wait edges here, so inter-VPP load imbalance and
 * barrier waits show up in the simulated kernel duration.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"

namespace obs {
class Tracer;
} // namespace obs

namespace gpusim {

/** Per-VPP timelines and global barriers for one kernel invocation. */
class PersistentSim
{
  public:
    /**
     * @param spec device being simulated
     * @param num_vpps number of persistent CTAs (SMs x CTAs per SM)
     * @param ctas_per_sm CTAs sharing each SM (1 or 2 in the paper)
     */
    PersistentSim(const DeviceSpec& spec, int num_vpps, int ctas_per_sm);

    int numVpps() const { return num_vpps_; }
    int ctasPerSm() const { return ctas_per_sm_; }

    /** Charge @p us of execution time onto VPP @p vpp. Inline: the
     *  interpreter calls it twice per instruction. */
    void
    charge(int vpp, double us)
    {
        vpp_time_.at(static_cast<std::size_t>(vpp)) += us;
    }

    /** @return the time one scripted instruction of cost @p cost
     *  takes on any VPP of this kernel. */
    double
    instructionUs(const KernelCost& cost) const
    {
        return vppInstructionUs(spec_, cost, ctas_per_sm_, num_vpps_);
    }

    /** Charge one scripted instruction's cost onto VPP @p vpp. */
    void
    chargeInstruction(int vpp, const KernelCost& cost)
    {
        charge(vpp, instructionUs(cost));
    }

    /** Current clock of VPP @p vpp, in us since kernel start. */
    double timeOf(int vpp) const { return vpp_time_[vpp]; }

    /** Declare that barrier @p barrier expects @p count signals. */
    void setExpectedSignals(std::size_t barrier, int count);

    /**
     * VPP @p vpp signals @p barrier at its current clock; charges the
     * atomic + fence cost of the signal.
     */
    void signal(std::size_t barrier, int vpp);

    /** @return true if all expected signals for @p barrier arrived.
     *  The script executor's schedule decides readiness the same way
     *  from signal counts alone. */
    bool
    barrierReady(std::size_t barrier) const
    {
        if (barrier >= barriers_.size())
            return false;
        const Barrier& b = barriers_[barrier];
        return b.expected > 0 && b.arrived >= b.expected;
    }

    /**
     * Block VPP @p vpp on @p barrier. Must only be called once
     * barrierReady() is true; advances the VPP clock to the barrier's
     * release time if it is earlier.
     */
    void wait(std::size_t barrier, int vpp);

    /** @return kernel duration so far: the max over all VPP clocks. */
    double makespan() const;

    /** @return mean VPP busy time (for load-balance diagnostics). */
    double meanVppTime() const;

    /**
     * Attach a borrowed tracer for barrier signal/wait events
     * (nullptr detaches). VPP clocks count from kernel start;
     * @p base_us is added to every emitted timestamp so barrier
     * events line up with the device-wide timeline the rest of the
     * trace uses. The executor applies signal()/wait() serially,
     * between its rounds' segments, so emission here is
     * single-threaded.
     */
    void
    setTracer(obs::Tracer* tracer, double base_us)
    {
        tracer_ = tracer;
        trace_base_us_ = base_us;
    }

  private:
    struct Barrier
    {
        int expected = 0;
        int arrived = 0;
        double release_time = 0.0;
    };

    const DeviceSpec& spec_;
    int num_vpps_;
    int ctas_per_sm_;
    std::vector<double> vpp_time_;
    std::vector<Barrier> barriers_;
    obs::Tracer* tracer_ = nullptr; //!< borrowed, may be null
    double trace_base_us_ = 0.0;

    Barrier& barrierAt(std::size_t barrier);
};

} // namespace gpusim

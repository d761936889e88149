#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace gpusim {

double
kernelBodyUs(const DeviceSpec& spec, const KernelCost& cost)
{
    // Parallelism derating: kernels that expose fewer threads than the
    // device saturation point run at a proportionally lower rate, with
    // a floor of one warp's worth of progress.
    const double threads = std::max(cost.parallel_threads, 32.0);
    const double util =
        std::min(1.0, threads / static_cast<double>(spec.saturation_threads));

    const double compute_us =
        cost.flops > 0.0 ? cost.flops / (spec.peakFlopsPerUs() * util) : 0.0;
    const double bytes = cost.dram_load_bytes + cost.dram_store_bytes;
    const double mem_us =
        bytes > 0.0 ? bytes / (spec.dramBytesPerUs() * util) : 0.0;
    const double atomic_us = cost.atomic_ops / spec.atomic_ops_per_us;
    const double latency_us =
        cost.latency_hops * spec.dram_latency_ns * 1e-3;

    return std::max(compute_us, mem_us) + atomic_us + latency_us;
}

double
vppInstructionUs(const DeviceSpec& spec, const KernelCost& cost,
                 int ctas_per_sm, int num_vpps)
{
    // A VPP is one 256-thread CTA pinned to (a share of) one SM.
    const double sm_flops_per_us =
        spec.fp32_lanes_per_sm * 2.0 * spec.core_clock_ghz * 1e3;
    const double vpp_flops_per_us = sm_flops_per_us / ctas_per_sm;

    // DRAM bandwidth is shared; assume steady state where every VPP
    // streams concurrently so each gets an equal share, boosted by
    // the SM's memory-level parallelism -- which shrinks when only
    // one CTA is resident (the occupancy effect behind Fig 9's
    // disproportionate drop at hidden length 384).
    const double fair_share = spec.dramBytesPerUs() / num_vpps;
    const double vpp_bw = fair_share * 2.0 * ctas_per_sm;

    const double compute_us =
        cost.flops > 0.0 ? cost.flops / vpp_flops_per_us : 0.0;
    const double bytes = cost.dram_load_bytes + cost.dram_store_bytes;
    const double mem_us = bytes > 0.0 ? bytes / vpp_bw : 0.0;
    const double atomic_us =
        cost.atomic_ops / (spec.atomic_ops_per_us / num_vpps);
    const double latency_us =
        cost.latency_hops * spec.dram_latency_ns * 1e-3;

    return std::max(compute_us, mem_us) + atomic_us + latency_us;
}

} // namespace gpusim

/**
 * @file
 * Roofline-style timing model for simulated kernels.
 *
 * A kernel's body duration is the larger of its compute time and its
 * memory time, plus a latency term, where both rates are derated by
 * how much parallelism the kernel exposes relative to what the device
 * needs for saturation. This reproduces the two effects the paper's
 * evaluation hinges on: (i) short-lived per-node kernels underutilize
 * the SMs and are dominated by launch overhead, and (ii) weight-matrix
 * reloads make the baselines memory-bound.
 */
#pragma once

#include "gpusim/device_spec.hpp"

namespace gpusim {

/** Resource demands of one kernel launch (or one VPP instruction). */
struct KernelCost
{
    /** Floating-point operations performed. */
    double flops = 0.0;

    /** Bytes read from device DRAM. */
    double dram_load_bytes = 0.0;

    /** Bytes written to device DRAM. */
    double dram_store_bytes = 0.0;

    /** Global-memory atomic operations issued. */
    double atomic_ops = 0.0;

    /**
     * Threads' worth of independent work the kernel exposes. Used to
     * derate throughput for small kernels (SM underutilization).
     */
    double parallel_threads = 1.0;

    /** Number of serial dependent phases (each pays DRAM latency). */
    double latency_hops = 1.0;
};

/**
 * @return the duration of the kernel body in microseconds, excluding
 * launch overhead (Device::launchKernel adds that).
 */
double kernelBodyUs(const DeviceSpec& spec, const KernelCost& cost);

/**
 * @return the duration in microseconds of one scripted instruction
 * executed by a single VPP (one CTA of 256 threads) when @p ctas_per_sm
 * CTAs share an SM. The VPP gets an SM's throughput divided by the
 * CTAs sharing it, and a per-VPP share of DRAM bandwidth assuming all
 * VPPs stream concurrently.
 */
double vppInstructionUs(const DeviceSpec& spec, const KernelCost& cost,
                        int ctas_per_sm, int num_vpps);

} // namespace gpusim

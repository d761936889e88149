/**
 * @file
 * Hardware specification records for the simulated system.
 *
 * The paper evaluates on an Nvidia Titan V (Volta, CC 7.0, 80 SMs with
 * 256 KB of register file each) attached over PCIe 3.0 x16 to an Intel
 * Xeon E5-1650 v2. DeviceSpec/HostSpec capture the parameters of that
 * system that the paper's results actually depend on: register-file
 * capacity (how much can be cached), DRAM bandwidth and latency (cost
 * of weight reloads), kernel-launch overhead (cost of per-node
 * execution in baselines), SM count (parallelism), and host-side
 * per-node costs (graph construction and scheduling, Fig 10).
 */
#pragma once

#include <cstddef>
#include <string>

namespace gpusim {

/** Parameters of the simulated GPU. Defaults model a Titan V. */
struct DeviceSpec
{
    std::string name = "Titan V (simulated)";

    /** Number of streaming multiprocessors. */
    int num_sms = 80;

    /** Threads per warp. */
    int warp_size = 32;

    /** Maximum resident threads per SM. */
    int max_threads_per_sm = 2048;

    /** Register file capacity per SM in bytes (Volta: 256 KB). */
    std::size_t regfile_bytes_per_sm = 256 * 1024;

    /** Maximum architected 4-byte registers addressable per thread. */
    int max_regs_per_thread = 255;

    /** Shared memory capacity per SM in bytes. */
    std::size_t shared_bytes_per_sm = 96 * 1024;

    /** Core clock in GHz (reference clocks per the paper). */
    double core_clock_ghz = 1.2;

    /** FP32 FMA lanes per SM (Volta: 64, counted as 2 flops/clock). */
    int fp32_lanes_per_sm = 64;

    /** Off-chip DRAM bandwidth in GB/s (Titan V HBM2: 652.8). */
    double dram_bandwidth_gbps = 652.8;

    /** Average DRAM access latency in nanoseconds. */
    double dram_latency_ns = 400.0;

    /** Fixed cost of launching one kernel, in microseconds. */
    double kernel_launch_us = 6.0;

    /** Global-memory atomic throughput, operations per microsecond
     *  (Volta L2 atomics sustain tens of atomics per clock). */
    double atomic_ops_per_us = 40000.0;

    /**
     * Cost a persistent CTA pays per global-memory barrier it waits
     * on: spin-poll interval over an L2-resident counter, the
     * release-propagation fence, and the per-phase script
     * interpretation round that follows. This fixed per-phase cost is
     * the reason per-input kernel time shrinks with batch size
     * (Fig 10): phases per input fall from ~150 at batch 1 to ~2 at
     * batch 128 while the per-phase overhead stays constant.
     */
    double barrier_wait_us = 30.0;

    /** Cost of the signal side: atomicAdd + __threadfence. */
    double barrier_signal_us = 0.5;

    /**
     * Threads needed device-wide to reach peak DRAM bandwidth /
     * compute throughput. Small kernels that expose fewer threads run
     * at a proportionally lower rate; this models the SM
     * underutilization the paper attributes to per-node execution of
     * short-lived kernels (Section II).
     */
    int saturation_threads = 80 * 1024;

    /** @return peak FP32 throughput in flops per microsecond. */
    double
    peakFlopsPerUs() const
    {
        return static_cast<double>(num_sms) * fp32_lanes_per_sm * 2.0 *
               core_clock_ghz * 1e3;
    }

    /** @return DRAM bandwidth in bytes per microsecond. */
    double
    dramBytesPerUs() const
    {
        return dram_bandwidth_gbps * 1e3;
    }

    /** Field by field: an executor reprices its kernel when any
     *  field moves. */
    bool operator==(const DeviceSpec&) const = default;
};

/**
 * Parameters of the simulated host and interconnect. These drive the
 * CPU-side bars of Fig 10 (graph construction, forward scheduling,
 * backward scheduling, script transfer) and the host overheads that
 * make per-node baseline execution slow at small batch sizes.
 */
struct HostSpec
{
    /** Cost of constructing one computation-graph node, us. */
    double graph_node_us = 0.25;

    /** Host-side cost of scheduling one node during script/batch
     *  generation (level sort, min-load targeting), us. */
    double sched_node_us = 0.35;

    /** Host-side cost of encoding one scripted instruction (a
     *  handful of word writes into the pinned buffer), us. */
    double sched_instr_us = 0.001;

    /** Host-side cost per kernel launch (driver + argument setup). */
    double launch_prep_us = 3.0;

    /**
     * Per batched-group overhead in the dynamic-batching baselines
     * (signature hashing, kernel argument assembly), us.
     */
    double batch_group_us = 2.0;

    /**
     * Per-node operand-marshalling cost in the dynamic-batching
     * baselines: building the gather lists and staging scattered
     * operand tensors into contiguous blocks for each merged kernel
     * (memory copies dominate batched execution in on-the-fly
     * batching [9]), us.
     */
    double batch_marshal_node_us = 0.05;

    /**
     * Maximum effective merge width of the dynamic-batching
     * baselines. Real on-the-fly batching fragments: same-signature
     * nodes become ready gradually and operand scatter limits how
     * many fold into one kernel, so measured merge widths stay small
     * even at batch 128 (Table I implies ~9 average for DyNet-AB).
     */
    int max_batch_group = 48;

    /** Extra per-group overhead of the TF-Fold style rewriter, us. */
    double fold_group_us = 9.0;

    /** Extra per-batch fixed overhead of TF-Fold (feed/fetch), us. */
    double fold_batch_us = 120.0;

    /** Effective PCIe 3.0 x16 host-to-device bandwidth, GB/s. */
    double pcie_bandwidth_gbps = 11.0;

    /** Fixed cost of a host-to-device copy, us. */
    double pcie_copy_fixed_us = 6.0;

    /**
     * Working-set degradation: multiplier applied per doubling of the
     * live node count beyond cache_friendly_nodes, modeling the cache
     * misses that make CPU scheduling the bottleneck at large batch
     * sizes (Section IV-D).
     */
    double cache_degradation_per_doubling = 0.08;
    int cache_friendly_nodes = 2500;

    /** @return multiplier >= 1 for host per-node costs given the
     *  number of live nodes in the working set. */
    double workingSetFactor(std::size_t live_nodes) const;
};

} // namespace gpusim

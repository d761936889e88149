/**
 * @file
 * Weight-matrix distribution over register partitions (Section
 * III-A1, Fig 4, Eq 1).
 *
 * Registers available to each CTA's threads are virtually split into
 * equal partitions (the same layout in every CTA). Weight matrices --
 * and, when capacity allows, their gradient matrices -- are cut into
 * blocks of rpw consecutive rows and dealt round-robin over the
 * (partition, warp, CTA) slots, CTA-fastest, so one matrix spreads
 * across as many CTAs as possible and inter-CTA register utilization
 * stays balanced. Each row lives entirely in the registers of one
 * warp, which keeps weight loads coalesced and matrix-vector products
 * free of inter-warp synchronization.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/model.hpp"

namespace vpps {

/**
 * User-facing knobs (all have paper defaults). What the paper fixes
 * is not a knob: the 256-thread CTA (footnote 5) and the 31
 * interpreter plus 32 staging registers reserved per thread
 * (footnote 6) are constants of the distribution plan, and the CTAs
 * per SM are chosen automatically (tryBuildAuto: 2 if the model
 * fits, else 1). Faults are
 * armed on the device, not here: Device::installFaults, or the
 * VPPS_FAULT_RATE / VPPS_FAULT_SEED environment variables, which
 * the handle reads when the device has no injector yet.
 */
struct VppsOptions
{
    /**
     * Rows per warp (load granularity). 0 selects profile-guided
     * tuning (Section III-A1): the handle measures training batches
     * at increasing rpw until performance degrades.
     */
    int rpw = 0;

    /**
     * Cache gradient matrices in registers too. Automatically
     * disabled when they do not fit (Section III-C2 fallback).
     */
    bool cache_gradients = true;

    /** Overlap host script generation with device execution
     *  (Section III-C1). */
    bool async = true;

    /**
     * Directory for the on-disk kernel cache (Section IV-F's
     * suggested extension); empty disables caching. Hits skip
     * program compilation but still pay module load.
     */
    std::string kernel_cache_dir;

    /**
     * Host threads used to interpret independent per-VPP script
     * segments concurrently (simulator speed only -- results are
     * bitwise identical for every value). <= 0 defers to the
     * VPPS_HOST_THREADS environment variable, else 1 (serial).
     */
    int host_threads = 0;

    /** @name Fault tolerance and recovery (see DESIGN.md section 4.6)
     *  @{ */

    /**
     * Kernel relaunch budget per batch. A failed launch is retried
     * with exponential backoff (the n-th retry of a batch waits
     * 50 us * 2^(n-1)); once the budget is spent the handle
     * degrades to another specialization (untried rpw, then the
     * GEMM-fallback kernel) and replays the batch.
     */
    int max_relaunch_attempts = 3;

    /**
     * Budget for checksum-verified script retransmits, workspace
     * allocation retries, loss-readback re-reads, and hung-kernel
     * replays, each counted per batch. Exceeding it surfaces a
     * RetryExhausted / OutOfMemory error from fbTry().
     */
    int max_retransmits = 5;

    /**
     * Skip batches whose loss is non-finite: parameters are rolled
     * back to their pre-batch snapshot, so one poisoned batch cannot
     * destroy the model. Always on; only active in functional mode
     * (timing-only runs have no real loss to test).
     */
    static constexpr bool nan_guard = true;

    /**
     * Degrade the specialization (next untried rpw, then the GEMM
     * fallback) when the relaunch budget is exhausted. The serving
     * layer turns this off: its circuit breaker owns the
     * primary-vs-fallback routing decision, so fbTry() should surface
     * a LaunchFailure instead of silently switching kernels.
     */
    bool degrade_on_failure = true;

    /** @} */

    /**
     * Optional validated-script cache shared across handles
     * (borrowed, must outlive the handle). Data-parallel replicas
     * point every per-replica handle at one cache so each distinct
     * script is validated once for the whole job; null gives the
     * handle a private cache (the single-device behavior).
     */
    class ScriptCache* script_cache = nullptr;
};

/** A contiguous run of matrix rows cached by one VPP. */
struct RowSlice
{
    std::uint32_t first_row = 0;
    std::uint32_t num_rows = 0;
};

/**
 * The complete placement of cached matrices (and gradients) onto the
 * register files of the persistent CTAs.
 */
class DistributionPlan
{
  public:
    /**
     * Attempt to build a plan with explicit knobs.
     * @return std::nullopt if the model has no weight matrices, or if
     * the matrices (plus gradients when requested) do not fit in the
     * register budget.
     */
    static std::optional<DistributionPlan>
    tryBuild(const graph::Model& model, const gpusim::DeviceSpec& spec,
             int rpw, int ctas_per_sm, bool cache_gradients);

    /**
     * Automatic configuration (Sections III-A1 and III-C2): prefer
     * two CTAs per SM with cached gradients; fall back to one CTA,
     * then to dropping gradient caching (the CUBLAS GEMM strategy).
     * @return a structured error if the weights alone cannot be
     * cached (no specialization exists for this model/device pair).
     */
    static common::Result<DistributionPlan>
    tryBuildAuto(const graph::Model& model,
                 const gpusim::DeviceSpec& spec, const VppsOptions& opts,
                 int rpw);

    /**
     * tryBuildAuto() for callers that have already validated the
     * model fits (tests, benches); panics if it does not. Tools with
     * untrusted user models should call tryBuildAuto() and report the
     * error themselves.
     */
    static DistributionPlan
    buildAuto(const graph::Model& model, const gpusim::DeviceSpec& spec,
              const VppsOptions& opts, int rpw);

    /**
     * @return the largest valid rpw for this model under automatic
     * CTA selection (the profile-guided tuner's search bound).
     */
    static int maxRpw(const graph::Model& model,
                      const gpusim::DeviceSpec& spec,
                      const VppsOptions& opts);

    /** @name Configuration
     *  @{ */
    int rpw() const { return rpw_; }
    int ctasPerSm() const { return ctas_per_sm_; }
    int numVpps() const { return num_vpps_; }
    bool gradientsCached() const { return grads_cached_; }
    /** @} */

    /** @return a digest of everything script emission reads from the
     *  plan: rpw, CTAs per SM, VPP count, gradient caching and every
     *  row slice. Computed once, when the plan is built; part of the
     *  script-cache key (ScriptGenerator::generate). */
    std::uint64_t digest() const { return digest_; }

    /** @name Partition geometry (Eq 1)
     *  @{ */
    std::uint32_t rowMax() const { return row_max_; }
    int regsPerThreadPerPartition() const { return regs_per_partition_; }
    std::uint32_t partitionSizeElems() const;
    int partitionsPerCta() const { return partitions_per_cta_; }
    int cacheRegsPerThread() const { return cache_regs_; }
    /** @} */

    /** @return row slices of matrix @p m (or its gradient) cached by
     *  VPP @p vpp; empty if none. */
    const std::vector<RowSlice>& slices(int vpp, graph::ParamId m,
                                        bool gradient) const;

    /** @return VPP ids caching at least one row of matrix @p m
     *  (or its gradient). */
    const std::vector<int>& vppsOf(graph::ParamId m, bool gradient) const;

    /** @return total rows of matrix @p m (or grad) on VPP @p vpp. */
    std::uint32_t rowsOn(int vpp, graph::ParamId m, bool gradient) const;

    /** @return bytes of weights cached per given VPP. */
    double cachedWeightBytes(int vpp) const;

    /** @return total bytes of all cached data (weights + grads). */
    double totalCachedBytes() const;

    /** @return register-slot utilization in [0, 1] (diagnostics). */
    double slotUtilization() const;

    /** Default-constructed plans are empty placeholders; build via
     *  tryBuild()/buildAuto(). */
    DistributionPlan() = default;

  private:
    int rpw_ = 1;
    int ctas_per_sm_ = 1;
    int num_vpps_ = 0;
    bool grads_cached_ = true;
    std::uint32_t row_max_ = 0;
    int regs_per_partition_ = 0;
    int partitions_per_cta_ = 0;
    int cache_regs_ = 0;
    std::size_t total_slots_ = 0;
    std::size_t used_slots_ = 0;
    std::uint64_t digest_ = 0;

    /** Indexed [gradient][matrix][vpp] -> row slices. */
    std::vector<std::vector<std::vector<std::vector<RowSlice>>>> slices_;
    std::vector<std::vector<std::vector<int>>> vpps_of_;     // [g][m]
    std::vector<double> cached_weight_bytes_;                // per vpp
};

} // namespace vpps

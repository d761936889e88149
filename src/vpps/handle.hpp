/**
 * @file
 * The user-facing VPPS API (Section III-D).
 *
 * Usage mirrors the paper's three calls exactly:
 *
 * @code
 *   vpps::Handle hndl(model, device);          // JIT-specializes
 *   ...
 *   float stale = hndl.fb(model, cg, loss);    // per training batch
 *   ...
 *   float latest = hndl.sync_get_latest_loss(); // occasional sync
 * @endcode
 *
 * Construction specializes and JIT-compiles the forward-backward
 * kernel(s) for the model's weight matrices; fb() generates and
 * transfers the execution script for the given super-graph and runs
 * the kernel; because device execution is asynchronous with respect
 * to the host, fb() returns the loss of the *previous* batch, and
 * sync_get_latest_loss() drains the pipeline and returns the current
 * one.
 */
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "vpps/codegen.hpp"
#include "vpps/pipeline.hpp"
#include "vpps/script_exec.hpp"
#include "vpps/script_gen.hpp"
#include "vpps/tuner.hpp"

namespace vpps {

/**
 * Per-category recovery counters. Each counter increments once per
 * recovery action, which pairs it one-to-one with the corresponding
 * gpusim::FaultLog category: after any run, script_retransmits ==
 * injected script_ecc, weight_reloads == weight_ecc, relaunches ==
 * launch_failures, hang_recoveries == hangs, alloc_retries ==
 * alloc_failures, and loss_retries == loss_ecc (asserted by
 * fault_recovery_test).
 */
struct RecoveryStats
{
    /** Script H2D copies repeated after a checksum mismatch. */
    std::uint64_t script_retransmits = 0;

    /** Cached-weight prologue re-fetches after detected ECC. */
    std::uint64_t weight_reloads = 0;

    /** Persistent-kernel launch retries. */
    std::uint64_t relaunches = 0;

    /** Hung-kernel replays (watchdog kill + rollback + rerun). */
    std::uint64_t hang_recoveries = 0;

    /** Batch workspace allocation retries. */
    std::uint64_t alloc_retries = 0;

    /** Loss readback re-reads after a corrupted value. */
    std::uint64_t loss_retries = 0;

    /** Batches abandoned by the NaN/Inf guard (params rolled back). */
    std::uint64_t skipped_batches = 0;

    /** Parameter-snapshot restores (hang replays + skipped batches). */
    std::uint64_t rollbacks = 0;

    /** Kernel degradations (rpw switch or GEMM-fallback adoption). */
    std::uint64_t degradations = 0;

    /**
     * @name Device-domain recovery (excluded from totalRecoveries():
     * these pair with FaultLog's device-domain categories, which the
     * transient total() pairing likewise excludes)
     * @{ */

    /** DistributionPlan re-derivations after a hot SM disable. */
    std::uint64_t plan_rederivations = 0;

    /** Batches delayed by a transient whole-device stall. */
    std::uint64_t stall_delays = 0;

    /** @} */

    /** Simulated time spent on wasted attempts, retransmits, and
     *  backoff, us (a subset of the stats' gpu/transfer time). */
    double recovery_us = 0.0;

    std::uint64_t
    totalRecoveries() const
    {
        return script_retransmits + weight_reloads + relaunches +
               hang_recoveries + alloc_retries + loss_retries +
               skipped_batches;
    }
};

/** Accumulated execution statistics, split as in Fig 10. */
struct VppsStats
{
    /** @name Host-side components
     *  @{ */
    double graph_us = 0.0;
    double fwd_sched_us = 0.0;
    double bwd_sched_us = 0.0;
    double transfer_us = 0.0;
    /** @} */

    /** @name Device-side components
     *  @{ */
    double kernel_us = 0.0;
    double extra_kernel_us = 0.0;
    /** @} */

    /** Pipelined wall-clock makespan so far, us. */
    double wall_us = 0.0;

    std::uint64_t batches = 0;
    std::uint64_t instructions = 0;
    std::uint64_t nodes = 0;

    /** Fault-recovery actions taken (all zero without an injector). */
    RecoveryStats recovery;

    double cpuUs() const
    {
        return graph_us + fwd_sched_us + bwd_sched_us + transfer_us;
    }

    double gpuUs() const { return kernel_us + extra_kernel_us; }

    void reset() { *this = VppsStats{}; }
};

/** The VPPS training handle. */
class Handle
{
  public:
    /**
     * Specialize and JIT-compile the forward-backward kernel(s).
     *
     * With opts.rpw > 0 a single kernel is compiled; with rpw == 0
     * (the default) one kernel per valid rpw is compiled up front and
     * the profile-guided tuner selects among them over the first
     * training batches (Section III-A1).
     *
     * panic()s when no specialization exists (unallocated model,
     * weights that cannot be register-cached); callers holding
     * untrusted models use tryCreate() instead.
     */
    Handle(graph::Model& model, gpusim::Device& device,
           VppsOptions opts = {});

    /**
     * Handle construction with recoverable errors: the serving layer
     * creates endpoints from configuration it does not control, so
     * an invalid model must surface as a Status, never an abort.
     */
    static common::Result<std::unique_ptr<Handle>>
    tryCreate(graph::Model& model, gpusim::Device& device,
              VppsOptions opts = {});

    /**
     * Run forward propagation, backward propagation, and parameter
     * update for the super-graph rooted at @p loss in one kernel
     * invocation.
     *
     * Equivalent to fbTry() but fatal()s on unrecoverable errors (the
     * paper's simple three-call API); prefer fbTry() when the caller
     * can restore from a checkpoint.
     *
     * @return the loss of the previous batch (stale, Section III-D);
     * for the first batch, 0.
     */
    float fb(graph::Model& model, graph::ComputationGraph& cg,
             graph::Expr loss);

    /**
     * fb() with recoverable errors. Transient faults (detected script
     * or weight ECC, failed launches, hung kernels, allocation
     * failures, corrupted loss readbacks) are retried, rolled back, or
     * degraded around within the per-batch budgets in VppsOptions;
     * because every injected fault is a *detected* fault, a batch that
     * completes through recovery leaves parameters bitwise identical
     * to a fault-free run. Exhausted budgets and unrecoverable
     * conditions (malformed scripts, genuine barrier deadlocks) return
     * a structured error with the device pool restored to its
     * pre-batch mark; the model's parameters may then reflect the
     * failed batch only through an explicit caller-side restore
     * (train::Harness re-loads its last checkpoint).
     */
    common::Result<float> fbTry(graph::Model& model,
                                graph::ComputationGraph& cg,
                                graph::Expr loss);

    /**
     * Inference through the training kernel: run the super-graph
     * forward (and its now-inert backward/update tail) with the
     * learning rate and weight decay pinned to zero, so parameters
     * are bitwise unchanged while the full fbTry() recovery ladder
     * still protects the batch. Serving handles run with opts.async
     * = false, which makes the returned loss the *current* batch's.
     */
    common::Result<float> inferTry(graph::Model& model,
                                   graph::ComputationGraph& cg,
                                   graph::Expr loss);

    /**
     * Gradient-only forward-backward: identical to fbTry() -- same
     * script, same recovery ladder, same modeled time -- except no
     * parameter update is applied anywhere, so after the call each
     * parameter's grad region holds this batch's gradient and its
     * value is bitwise unchanged. The data-parallel driver runs one
     * microbatch per call, all-reduces the gradients in canonical
     * order, and applies the update itself (train/data_parallel.hpp).
     * Callers wanting the *current* batch's loss construct the handle
     * with opts.async = false, as the serving layer does.
     */
    common::Result<float> fbGradTry(graph::Model& model,
                                    graph::ComputationGraph& cg,
                                    graph::Expr loss);

    /**
     * Cost-model prior for one batch's service time (host + device),
     * us. The serving layer uses it for admission feasibility until
     * (or instead of, when probes fail under faults) calibration
     * measurements are available.
     *
     * @param batch_items inputs in the batch
     * @param nodes_per_item expected computation-graph nodes per item
     */
    double estimateBatchUs(std::size_t batch_items,
                           double nodes_per_item) const;

    /**
     * JIT the GEMM-fallback kernel (cache_gradients = false) up
     * front so the circuit breaker can route to it without paying
     * compilation inside a request. Idempotent; a no-op once the
     * handle holds a fallback (prepared earlier, or built by a
     * degradation).
     */
    common::Status prepareFallback(graph::Model& model);

    /**
     * Route subsequent batches to the fallback kernel (the circuit
     * breaker's open-state path) or back to the primary
     * specialization. panic()s if enabling without a fallback (call
     * prepareFallback() first). A degraded handle runs the fallback
     * either way.
     */
    void setRouteToFallback(bool on);

    /** Wait for the in-flight kernel and return its loss. */
    float sync_get_latest_loss();

    /** @return the kernel currently selected for execution. */
    const CompiledKernel& kernel() const;

    /** @return total JIT time across all compiled kernels, s. */
    double jitSeconds() const { return jit_seconds_; }

    /** @return the tuner's result, once profiling has finished. */
    std::optional<TuneResult> tuneResult() const;

    const VppsStats& stats() const { return stats_; }
    void resetStats();

    const VppsOptions& options() const { return opts_; }

  private:
    /** Tag for the deferred-initialization constructor. */
    struct Defer
    {
    };

    Handle(Defer, gpusim::Device& device, VppsOptions opts);

    /** Shared construction body; all validation errors are Status. */
    common::Status init(graph::Model& model);

    /**
     * Graceful degradation after an exhausted relaunch budget: stop
     * the tuner, retire the failing rpw, and switch to an untried
     * specialization; once every cached-gradient rpw has failed,
     * adopt the GEMM-fallback kernel for good (cache_gradients =
     * false -- the Section III-C2 strategy, which a permanent
     * register-file fault cannot touch), JITing it at the failing
     * rpw unless prepareFallback() already did. @return false when
     * already degraded onto the fallback (nothing left to degrade
     * to).
     */
    bool degrade(graph::Model& model);

    /** The primary kernel's rpw: pinned after a degradation or a
     *  plan re-derivation, else the tuner's candidate, else
     *  opts.rpw. */
    int currentRpw() const;

    /**
     * Re-derive every live DistributionPlan against the (shrunken)
     * current device spec after a hot SM disable: re-JITs the primary
     * kernel currently selected (unless degraded) and pins it,
     * discarding stale plans and the tuner, then re-JITs the fallback
     * if there is one. The re-JIT cost is charged as simulated time.
     */
    common::Status rederiveAfterShrink(graph::Model& model);

    gpusim::Device& device_;
    gpusim::HostSpec host_;
    VppsOptions opts_;
    std::map<int, CompiledKernel> kernels_; // by rpw
    std::unique_ptr<ProfileGuidedTuner> tuner_;
    AsyncPipeline pipeline_;
    ScriptExecutor executor_;
    VppsStats stats_;
    double jit_seconds_ = 0.0;
    float pending_loss_ = 0.0f;

    /** False only inside fbGradTry(): the executor skips SGD stores
     *  (but not their time charges) so gradients survive the batch. */
    bool apply_updates_ = true;

    /** @name Degradation and fallback state
     *  @{ */
    std::vector<int> degraded_rpws_;
    int forced_rpw_ = 0; //!< > 0 pins kernel() after a degradation

    /** The GEMM-fallback kernel, once prepareFallback() or degrade()
     *  has built it. */
    std::optional<CompiledKernel> fallback_;

    /** degrade() adopted fallback_: every later batch runs on it. */
    bool degraded_ = false;

    /** The serving breaker routes batches to fallback_. */
    bool route_to_fallback_ = false;
    /** @} */

    /** Pre-batch parameter values for rollback, in Model::gather()'s
     *  layout; refilled, not reallocated, by every snapshot. */
    std::vector<float> param_snapshot_;
};

} // namespace vpps

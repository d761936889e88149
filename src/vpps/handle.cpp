#include "vpps/handle.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vpps/kernel_cache.hpp"

namespace vpps {

namespace {

/** Base of the exponential relaunch backoff, simulated us: the n-th
 *  retry of a batch waits kRelaunchBackoffUs * 2^(n-1). */
constexpr double kRelaunchBackoffUs = 50.0;

/** Specialize (or load from the cache) the kernel for one rpw. */
common::Result<CompiledKernel>
tryObtainKernel(graph::Model& model, gpusim::Device& device,
                const VppsOptions& opts, int rpw)
{
    std::optional<KernelCache> cache;
    if (!opts.kernel_cache_dir.empty()) {
        cache.emplace(opts.kernel_cache_dir);
        if (auto hit = cache->load(model, device.spec(), opts, rpw)) {
            common::inform("vpps::Handle: kernel cache hit for rpw ",
                           rpw, " (module load only)");
            return std::move(*hit);
        }
    }
    auto plan =
        DistributionPlan::tryBuildAuto(model, device.spec(), opts, rpw);
    if (!plan.ok())
        return plan.takeStatus();
    auto kernel =
        KernelSpecializer(device.spec()).specialize(model, plan.value());
    if (cache)
        cache->store(kernel, model, device.spec());
    return kernel;
}

/** Specialize the GEMM-fallback kernel (no gradient caching) at
 *  @p rpw. */
common::Result<CompiledKernel>
tryObtainFallback(graph::Model& model, gpusim::Device& device,
                  VppsOptions opts, int rpw)
{
    opts.cache_gradients = false;
    return tryObtainKernel(model, device, opts, rpw);
}

/** Modeled JIT time of one kernel, s. */
double
jitSecondsOf(const CompiledKernel& k)
{
    return k.prog_compile_s + k.module_load_s;
}

} // namespace

Handle::Handle(Defer, gpusim::Device& device, VppsOptions opts)
    : device_(device), opts_(opts), pipeline_(opts.async),
      executor_(device, opts.host_threads, opts.script_cache)
{
}

Handle::Handle(graph::Model& model, gpusim::Device& device,
               VppsOptions opts)
    : Handle(Defer{}, device, opts)
{
    if (auto st = init(model); !st.ok())
        common::panic("vpps::Handle: ", st.toString(),
                      " (use tryCreate for untrusted models)");
}

common::Result<std::unique_ptr<Handle>>
Handle::tryCreate(graph::Model& model, gpusim::Device& device,
                  VppsOptions opts)
{
    std::unique_ptr<Handle> handle(new Handle(Defer{}, device, opts));
    if (auto st = handle->init(model); !st.ok())
        return st;
    return handle;
}

common::Status
Handle::init(graph::Model& model)
{
    if (!model.allocated())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "model must be allocated before constructing the handle");
    if (opts_.rpw > 0) {
        auto k = tryObtainKernel(model, device_, opts_, opts_.rpw);
        if (!k.ok())
            return k.takeStatus();
        kernels_.emplace(opts_.rpw, std::move(k).value());
    } else {
        // Compile one kernel per valid rpw, bounded: beyond ~8 rows
        // per warp the locality gains flatten while JIT cost keeps
        // growing, so the candidate set is capped (the paper's valid
        // options are "limited", Section III-A1).
        constexpr int kMaxCandidates = 8;
        const int max_rpw = std::min(
            kMaxCandidates,
            DistributionPlan::maxRpw(model, device_.spec(), opts_));
        if (max_rpw < 1)
            return common::Status::failure(
                common::ErrorCode::OutOfMemory,
                "no valid rpw; weights do not fit in the register "
                "file");
        for (int rpw = 1; rpw <= max_rpw; ++rpw) {
            auto k = tryObtainKernel(model, device_, opts_, rpw);
            if (!k.ok())
                return k.takeStatus();
            kernels_.emplace(rpw, std::move(k).value());
        }
        tuner_ = std::make_unique<ProfileGuidedTuner>(max_rpw);
    }
    for (const auto& [rpw, k] : kernels_)
        jit_seconds_ += jitSecondsOf(k);
    common::inform("vpps::Handle: compiled ", kernels_.size(),
                   " kernel(s) in ", jit_seconds_, " s (modeled NVRTC)");

    // Fault-injection plumbing: an injector already installed on the
    // device wins; otherwise the VPPS_FAULT_RATE / VPPS_FAULT_SEED
    // environment variables (the tools/check.sh soak pass) apply.
    if (!device_.faults()) {
        if (auto plan = gpusim::FaultPlan::fromEnv())
            device_.installFaults(*plan);
    }
    return common::Status();
}

int
Handle::currentRpw() const
{
    return forced_rpw_ > 0 ? forced_rpw_
                           : (tuner_ ? tuner_->candidate() : opts_.rpw);
}

const CompiledKernel&
Handle::kernel() const
{
    if (fallback_ && (degraded_ || route_to_fallback_))
        return *fallback_;
    const int rpw = currentRpw();
    auto it = kernels_.find(rpw);
    if (it == kernels_.end())
        common::panic("vpps::Handle: no kernel for rpw ", rpw);
    return it->second;
}

common::Status
Handle::prepareFallback(graph::Model& model)
{
    if (fallback_)
        return common::Status();
    auto k = tryObtainFallback(model, device_, opts_,
                               opts_.rpw > 0 ? opts_.rpw : 1);
    if (!k.ok())
        return k.takeStatus();
    fallback_ = std::move(k).value();
    jit_seconds_ += jitSecondsOf(*fallback_);
    return common::Status();
}

void
Handle::setRouteToFallback(bool on)
{
    if (on && !fallback_)
        common::panic("vpps::Handle::setRouteToFallback: call "
                      "prepareFallback first");
    route_to_fallback_ = on;
}

bool
Handle::degrade(graph::Model& model)
{
    if (degraded_)
        return false; // nothing healthier left to switch to
    ++stats_.recovery.degradations;
    const int bad_rpw = kernel().plan.rpw();
    degraded_rpws_.push_back(bad_rpw);
    // Health over speed: the profile-guided search is void once a
    // specialization is suspected faulty.
    tuner_.reset();
    for (const auto& [rpw, k] : kernels_) {
        (void)k;
        if (std::find(degraded_rpws_.begin(), degraded_rpws_.end(),
                      rpw) == degraded_rpws_.end()) {
            forced_rpw_ = rpw;
            common::inform("vpps::Handle: degrading rpw ", bad_rpw,
                           " -> ", rpw,
                           " after repeated launch failures");
            return true;
        }
    }
    // Last resort: the uncached-gradient GEMM strategy (Section
    // III-C2). Its kernel keeps only weights in registers, so a
    // register-file fault that the gradient-cached specializations
    // keep tripping over cannot reach it. A fallback the serving
    // layer JITed up front is adopted as it is.
    if (!fallback_) {
        auto k = tryObtainFallback(model, device_, opts_, bad_rpw);
        if (!k.ok()) {
            common::warn("vpps::Handle: GEMM-fallback specialization "
                         "failed (",
                         k.status().toString(),
                         "); nothing left to degrade to");
            return false;
        }
        fallback_ = std::move(k).value();
        jit_seconds_ += jitSecondsOf(*fallback_);
    }
    degraded_ = true;
    forced_rpw_ = 0;
    common::inform("vpps::Handle: degrading to the GEMM-fallback "
                   "kernel after repeated launch failures");
    return true;
}

common::Status
Handle::rederiveAfterShrink(graph::Model& model)
{
    ++stats_.recovery.plan_rederivations;
    double rejit_s = 0.0;

    if (!degraded_) {
        // Rebuild only the specialization currently routed to and pin
        // it: the other candidates' plans are stale against the
        // shrunken spec, and profile measurements taken on the full
        // device no longer apply.
        const int rpw = currentRpw();
        auto k = tryObtainKernel(model, device_, opts_, rpw);
        if (!k.ok())
            return k.takeStatus();
        kernels_.clear();
        auto [it, inserted] = kernels_.emplace(rpw,
                                               std::move(k).value());
        (void)inserted;
        rejit_s += jitSecondsOf(it->second);
        tuner_.reset();
        forced_rpw_ = rpw;
    }

    // The fallback must stay launchable (the serving layer routes to
    // it without re-checking), so it is re-derived under the same
    // shrink.
    if (fallback_) {
        auto k = tryObtainFallback(model, device_, opts_,
                                   fallback_->plan.rpw());
        if (!k.ok())
            return k.takeStatus();
        fallback_ = std::move(k).value();
        rejit_s += jitSecondsOf(*fallback_);
    }

    jit_seconds_ += rejit_s;
    const double rejit_us = rejit_s * 1e6;
    device_.chargeTime(rejit_us);
    stats_.recovery.recovery_us += rejit_us;
    common::inform("vpps::Handle: re-derived distribution plan after "
                   "SM disable (",
                   device_.spec().num_sms, " SMs remain, ", rejit_s,
                   " s re-JIT)");
    return common::Status();
}

float
Handle::fb(graph::Model& model, graph::ComputationGraph& cg,
           graph::Expr loss)
{
    auto r = fbTry(model, cg, loss);
    if (!r.ok())
        common::panic("vpps::Handle::fb: unrecoverable error: ",
                      r.status().toString(),
                      " (use fbTry when the caller can recover)");
    return r.value();
}

common::Result<float>
Handle::inferTry(graph::Model& model, graph::ComputationGraph& cg,
                 graph::Expr loss)
{
    // p - lr*(g + wd*p) with lr = 0 leaves every finite parameter
    // bitwise unchanged, so the training kernel doubles as the
    // inference kernel with its update tail rendered inert -- and the
    // whole fbTry recovery ladder still guards the batch.
    const float lr = model.learning_rate;
    const float wd = model.weight_decay;
    model.learning_rate = 0.0f;
    model.weight_decay = 0.0f;
    auto r = fbTry(model, cg, loss);
    model.learning_rate = lr;
    model.weight_decay = wd;
    return r;
}

common::Result<float>
Handle::fbGradTry(graph::Model& model, graph::ComputationGraph& cg,
                  graph::Expr loss)
{
    // Same batch as fbTry -- same script, costs, and recovery ladder
    // -- but with every SGD store suppressed, so the batch's gradient
    // stays in each parameter's grad region for the caller to
    // all-reduce and apply itself. Backward scheduling zeroes the
    // grad regions at the start of every generated batch, so each
    // call yields exactly its own batch's gradient even though
    // nothing here consumes (and zeroes) the previous one.
    apply_updates_ = false;
    auto r = fbTry(model, cg, loss);
    apply_updates_ = true;
    return r;
}

double
Handle::estimateBatchUs(std::size_t batch_items,
                        double nodes_per_item) const
{
    const auto& spec = device_.spec();
    const DistributionPlan& plan = kernel().plan;
    const double nodes =
        static_cast<double>(batch_items) * nodes_per_item;

    // Host side: graph construction plus forward/backward scheduling,
    // derated by the working-set factor at this node count.
    const double host_us =
        nodes * (host_.graph_node_us + 2.0 * host_.sched_node_us) *
        host_.workingSetFactor(static_cast<std::uint64_t>(nodes));

    // Device side: model each node as roughly one matrix-vector
    // product against a row_max-square matrix (the dominant scripted
    // instruction) plus two elementwise companions, spread over the
    // VPPs, behind one kernel launch.
    const double rows = static_cast<double>(plan.rowMax());
    gpusim::KernelCost per_node;
    per_node.flops = 2.0 * rows * rows + 4.0 * rows;
    per_node.dram_load_bytes = 12.0 * rows;
    per_node.dram_store_bytes = 12.0 * rows;
    per_node.latency_hops = 1.0;
    const double node_us = gpusim::vppInstructionUs(
        spec, per_node, plan.ctasPerSm(), plan.numVpps());
    const double device_us =
        spec.kernel_launch_us +
        nodes * node_us / std::max(1, plan.numVpps());

    return host_us + device_us;
}

common::Result<float>
Handle::fbTry(graph::Model& model, graph::ComputationGraph& cg,
              graph::Expr loss)
{
    using common::ErrorCode;
    using common::Status;

    auto& mem = device_.memory();
    auto& rec = stats_.recovery;
    gpusim::FaultInjector* inj = device_.faults();
    const auto mark = mem.mark();
    const double gpu_before = device_.busyUs();

    // One recovery-ladder rung fired: an instant on the recovery lane
    // plus a "recovery.<rung>" counter. Rungs are counted at exactly
    // the sites that bump RecoveryStats, so the registry reconciles
    // 1:1 against the injector's FaultLog (metrics_test pins the
    // category-for-category identity). fbTry runs serially on the
    // host, so emission order is deterministic.
    obs::Tracer* const tracer = device_.tracer();
    obs::MetricsRegistry* const metrics = device_.metrics();
    auto rung = [&](const char* name, double arg0 = 0.0) {
        if (tracer)
            tracer->instant(obs::kLaneRecovery, "recovery", name,
                            device_.busyUs(), 0, arg0);
        if (metrics)
            metrics->counter(std::string("recovery.") + name).add();
    };

    // Device-domain faults are checked once per batch, before the
    // attempt loop: no in-batch rung can recover a wedged device, a
    // stall delays the whole dispatch exactly once, and an SM disable
    // invalidates every derived plan -- none of which may be
    // re-charged on recovery replays. The queries are keyed on the
    // wall clock and never draw from the injector's stream, so
    // layering a device-domain schedule over a transient plan leaves
    // the transient fault sequence untouched.
    if (inj) {
        const double now = device_.clockUs();
        if (inj->deviceWedged(now)) {
            rung("device_lost");
            return Status::failure(
                ErrorCode::DeviceLost,
                "device wedged; no in-batch recovery possible");
        }
        if (const double stall = inj->stallPenaltyUs(now);
            stall > 0.0) {
            ++rec.stall_delays;
            rung("device_stall", stall);
            device_.chargeTime(stall);
            device_.advanceClockTo(now + stall);
            rec.recovery_us += stall;
        }
        if (const int sms = inj->smsToDisable(now); sms > 0) {
            rung("sm_disable", static_cast<double>(sms));
            device_.disableSms(sms);
            if (auto st = rederiveAfterShrink(model); !st.ok()) {
                mem.resetTo(mark);
                return st;
            }
            rung("plan_rederive");
        }
    }

    // Host-time components accumulate across recovery replays: a
    // rolled-back batch regenerates its script, and that host work --
    // like the device time of a killed kernel -- is genuinely spent.
    double graph_us = 0.0;
    double fwd_us = 0.0;
    double bwd_us = 0.0;
    double transfer_us = 0.0;

    int alloc_attempts = 0;
    int hang_attempts = 0;
    bool snapshotted = false;
    auto restoreSnapshot = [&] {
        model.scatter(device_, graph::ParamBuffer::Value,
                      param_snapshot_);
    };
    bool skipped = false;
    float batch_loss = 0.0f;
    double kernel_us = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t live_nodes = 0;

    // Batch-attempt loop. Every `continue` has first incremented one
    // of the bounded per-category counters (alloc_attempts,
    // hang_attempts, or the degradation ladder, which is finite), so
    // the loop terminates for every fault plan.
    for (;;) {
        const CompiledKernel& k = kernel();

        // Batch workspace acquisition. An injected transient
        // allocation failure is recovered by resetting the pool to
        // the pre-batch mark (freeing any partial placement) and
        // retrying the batch.
        if (inj && inj->failBatchAlloc()) {
            ++rec.alloc_retries;
            rung("alloc_retry",
                 static_cast<double>(alloc_attempts + 1));
            if (alloc_attempts++ >= opts_.max_retransmits) {
                mem.resetTo(mark);
                return Status::failure(
                           ErrorCode::OutOfMemory,
                           "batch workspace allocation kept failing")
                    .withAttempts(alloc_attempts);
            }
            mem.resetTo(mark);
            continue;
        }

        // Host: graph construction + script generation. A batch the
        // script cache already holds is placed but not emitted, and is
        // charged exactly what its first generation was.
        const ScriptGenerator generator(k, host_);
        GeneratedBatch gb = generator.generate(device_, model, cg, loss,
                                               &executor_.cache());

        const double ws = host_.workingSetFactor(gb.stats.live_nodes);
        graph_us +=
            static_cast<double>(cg.size()) * host_.graph_node_us * ws;
        fwd_us += gb.stats.fwd_sched_us;
        bwd_us += gb.stats.bwd_sched_us;
        live_nodes = gb.stats.live_nodes;

        // Host-to-device transfer: one pinned-buffer copy for the
        // whole script (prefix-sum header + per-VPP sections) plus
        // the staged inputs, charged on a cache hit too (the modeled
        // host writes every batch's script). A detected ECC
        // corruption of the copy retransmits the buffer, up to the
        // budget. No digest of the script is computed in fb(): the
        // injector's corruptScriptTransfer() draw stands in for the
        // device-side check, and the script-cache key is the
        // generator's digest of its inputs.
        const double script_bytes = gb.stats.script_bytes;
        const double copy_us =
            host_.pcie_copy_fixed_us +
            (script_bytes + gb.stats.input_bytes) /
                (host_.pcie_bandwidth_gbps * 1e3);
        transfer_us += copy_us;
        device_.addStore(gpusim::MemSpace::Script, script_bytes);
        int retransmits = 0;
        bool transfer_dead = false;
        while (inj && inj->corruptScriptTransfer()) {
            ++rec.script_retransmits;
            rung("script_retransmit",
                 static_cast<double>(retransmits + 1));
            if (retransmits++ >= opts_.max_retransmits) {
                transfer_dead = true;
                break;
            }
            transfer_us += copy_us;
            rec.recovery_us += copy_us;
            device_.addStore(gpusim::MemSpace::Script, script_bytes);
        }
        if (transfer_dead) {
            mem.resetTo(mark);
            return Status::failure(
                       ErrorCode::EccScript,
                       "script transfer checksum kept failing")
                .withAttempts(retransmits);
        }

        // Snapshot parameters before the kernel can mutate them
        // (UpdateVec instructions run mid-script), so a hung or
        // poisoned batch can roll back. Fault-free timing-only runs,
        // which have no loss for the NaN guard to test, skip the copy
        // entirely.
        if (!snapshotted && (inj != nullptr || device_.functional())) {
            model.gather(device_, graph::ParamBuffer::Value,
                         param_snapshot_);
            snapshotted = true;
        }

        const double attempt_gpu_start = device_.busyUs();

        // Device: gradient-buffer memset + the persistent kernel.
        {
            gpusim::KernelCost memset_cost;
            memset_cost.dram_store_bytes = gb.stats.zeroed_bytes;
            memset_cost.parallel_threads = gb.stats.zeroed_bytes / 4.0;
            device_.addStore(gpusim::MemSpace::ActGrads,
                             gb.stats.zeroed_bytes);
            device_.launchKernel(memset_cost);
        }

        // Launch, with bounded retry and exponential backoff. An
        // exhausted budget degrades the specialization (next untried
        // rpw, then the GEMM fallback) and replays the batch: the new
        // kernel's distribution plan needs a new script.
        int launch_attempts = 0;
        bool degraded = false;
        while (inj && inj->failLaunch(k.plan.gradientsCached())) {
            ++rec.relaunches;
            ++launch_attempts;
            rung("relaunch", static_cast<double>(launch_attempts));
            gpusim::KernelCost failed_launch;
            failed_launch.latency_hops = 0.0;
            const double launch_cost =
                device_.launchKernel(failed_launch);
            const double backoff =
                kRelaunchBackoffUs *
                static_cast<double>(1u << (launch_attempts - 1));
            device_.chargeTime(backoff);
            rec.recovery_us += launch_cost + backoff;
            if (launch_attempts >= opts_.max_relaunch_attempts) {
                if (!opts_.degrade_on_failure) {
                    // The caller (serving circuit breaker) owns the
                    // fallback-routing decision; report and let it
                    // trip.
                    mem.resetTo(mark);
                    return Status::failure(
                               ErrorCode::LaunchFailure,
                               "relaunch budget exhausted")
                        .withAttempts(launch_attempts);
                }
                if (!degrade(model)) {
                    mem.resetTo(mark);
                    return Status::failure(
                               ErrorCode::LaunchFailure,
                               "relaunch budget exhausted on the "
                               "fallback kernel")
                        .withAttempts(launch_attempts);
                }
                rung("degrade");
                degraded = true;
                break;
            }
        }
        if (degraded) {
            mem.resetTo(mark);
            continue;
        }

        const std::uint64_t wecc_before =
            inj ? inj->injected().weight_ecc : 0;
        auto run = executor_.run(k, gb, model, cg, apply_updates_);
        // Weight-ECC reloads recover inside the executor (a second
        // prologue fetch); mirror the injector's count so the
        // counters stay category-for-category comparable even when a
        // later fault discards the attempt's RunResult.
        if (inj) {
            const std::uint64_t reloads =
                inj->injected().weight_ecc - wecc_before;
            rec.weight_reloads += reloads;
            for (std::uint64_t i = 0; i < reloads; ++i)
                rung("weight_reload");
        }
        if (!run.ok()) {
            rec.recovery_us += device_.busyUs() - attempt_gpu_start;
            if (run.status().code() == ErrorCode::HungVpp) {
                // Watchdog killed the kernel mid-batch: parameters
                // may hold partial updates, so roll back to the
                // pre-batch snapshot and replay from scratch.
                ++rec.hang_recoveries;
                ++rec.rollbacks;
                rung("hang_recovery",
                     static_cast<double>(hang_attempts + 1));
                rung("rollback");
                restoreSnapshot();
                mem.resetTo(mark);
                if (hang_attempts++ >= opts_.max_retransmits)
                    return Status::failure(
                               ErrorCode::RetryExhausted,
                               "hung-kernel replay budget exhausted")
                        .withAttempts(hang_attempts);
                continue;
            }
            // Malformed scripts and genuine barrier deadlocks are
            // deterministic: replaying the same script cannot help.
            if (snapshotted)
                restoreSnapshot();
            mem.resetTo(mark);
            return run.takeStatus();
        }
        const RunResult rr = std::move(run).value();
        kernel_us = rr.kernel_us;
        instructions += rr.instructions;

        // Loss readback, re-read on detected corruption: the value in
        // device memory is intact (the fault hit the 4-byte D2H
        // copy), so a re-read suffices -- no rollback.
        int rereads = 0;
        bool readback_dead = false;
        while (inj && inj->corruptLossReadback()) {
            ++rec.loss_retries;
            rung("loss_reread", static_cast<double>(rereads + 1));
            if (rereads++ >= opts_.max_retransmits) {
                readback_dead = true;
                break;
            }
            transfer_us += host_.pcie_copy_fixed_us;
            rec.recovery_us += host_.pcie_copy_fixed_us;
        }
        if (readback_dead) {
            if (snapshotted)
                restoreSnapshot();
            mem.resetTo(mark);
            return Status::failure(
                       ErrorCode::NumericalFault,
                       "loss readback kept failing verification")
                .withAttempts(rereads);
        }
        batch_loss = rr.loss;

        // Genuine non-finite loss (diverged or poisoned batch):
        // abandon the update, restore the pre-batch parameters, and
        // report the batch skipped rather than spreading NaNs into
        // every weight.
        if (device_.functional() && !std::isfinite(batch_loss)) {
            ++rec.skipped_batches;
            ++rec.rollbacks;
            rung("skipped_batch");
            rung("rollback");
            rec.recovery_us += device_.busyUs() - attempt_gpu_start;
            restoreSnapshot();
            skipped = true;
        }
        break;
    }

    const double gpu_us = device_.busyUs() - gpu_before;
    const double cpu_us = graph_us + fwd_us + bwd_us + transfer_us;
    pipeline_.submit({cpu_us, gpu_us});

    stats_.graph_us += graph_us;
    stats_.fwd_sched_us += fwd_us;
    stats_.bwd_sched_us += bwd_us;
    stats_.transfer_us += transfer_us;
    stats_.kernel_us += kernel_us;
    stats_.extra_kernel_us += gpu_us - kernel_us;
    stats_.wall_us = pipeline_.makespanUs();
    stats_.batches += 1;
    stats_.instructions += instructions;
    stats_.nodes += live_nodes;

    if (tuner_ && !tuner_->done())
        tuner_->record(cpu_us + gpu_us);

    mem.resetTo(mark);

    if (skipped)
        return pending_loss_; // the skipped batch contributes nothing

    const float previous = pending_loss_;
    pending_loss_ = batch_loss;
    return opts_.async ? previous : batch_loss;
}

float
Handle::sync_get_latest_loss()
{
    pipeline_.sync();
    return pending_loss_;
}

std::optional<TuneResult>
Handle::tuneResult() const
{
    if (!tuner_ || !tuner_->done())
        return std::nullopt;
    return tuner_->result();
}

void
Handle::resetStats()
{
    stats_.reset();
    pipeline_.reset();
}

} // namespace vpps

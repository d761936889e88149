#include "train/data_parallel.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "tensor/host_math.hpp"
#include "train/collective.hpp"
#include "train/harness.hpp"
#include "vpps/script_cache.hpp"

namespace train {

namespace {

using common::ErrorCode;
using common::Result;
using common::Status;

/** Pipelining chunks per all-reduce. */
constexpr std::size_t kChunks = 4;

/** Gradient buckets for the overlapped schedule. */
constexpr std::size_t kBuckets = 4;

/** One replica's live state. */
struct Replica
{
    std::unique_ptr<ReplicaContext> ctx;
    std::unique_ptr<vpps::Handle> handle;
};

/** All parameter values, concatenated in ParamId order (the
 *  TrainCheckpoint layout). */
std::vector<float>
captureParams(const graph::Model& model, const gpusim::Device& device)
{
    std::vector<float> out;
    const auto& mem = device.memory();
    for (graph::ParamId id = 0; id < model.numParams(); ++id)
    {
        const auto& p = model.param(id);
        const float* v = mem.data(p.value);
        out.insert(out.end(), v, v + p.shape.size());
    }
    return out;
}

/** All gradient accumulators, concatenated in ParamId order. */
std::vector<float>
captureGrads(const graph::Model& model, const gpusim::Device& device)
{
    std::vector<float> out;
    const auto& mem = device.memory();
    for (graph::ParamId id = 0; id < model.numParams(); ++id)
    {
        const auto& p = model.param(id);
        const float* g = mem.data(p.grad);
        out.insert(out.end(), g, g + p.shape.size());
    }
    return out;
}

/**
 * Apply the canonical step gradient as one SGD update on a replica:
 * the gradient is written into the device-side accumulators and the
 * exact single-device update arithmetic (tensor::sgdUpdate) runs over
 * it, so every replica -- and a true single-device run -- computes
 * the identical parameter bits. @return the modeled update-kernel
 * time, us.
 */
double
applyUpdate(graph::Model& model, gpusim::Device& device,
            const std::vector<float>& grad)
{
    auto& mem = device.memory();
    std::size_t offset = 0;
    for (graph::ParamId id = 0; id < model.numParams(); ++id)
    {
        auto& p = model.param(id);
        const std::size_t len = p.shape.size();
        std::memcpy(mem.data(p.grad), grad.data() + offset,
                    len * sizeof(float));
        tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad), len,
                          model.learning_rate, model.weight_decay);
        offset += len;
    }

    const double scalars =
        static_cast<double>(model.totalScalars());
    gpusim::KernelCost update;
    update.flops = 3.0 * scalars;
    update.dram_load_bytes = 8.0 * scalars;
    update.dram_store_bytes = 4.0 * scalars;
    update.parallel_threads = scalars;
    return device.launchKernel(update);
}

} // namespace

Result<DataParallelReport>
trainDataParallel(const ReplicaFactory& factory,
                  const DataParallelOptions& opts)
{
    const std::size_t R = opts.replicas;
    const std::size_t M = opts.microbatches;
    if (R == 0 || M == 0)
        return Status::failure(ErrorCode::InvalidArgument,
                               "data-parallel run needs at least one "
                               "replica and one microbatch");
    if (R > M || M % R != 0)
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat(
                "replica count ", R, " must divide the microbatch "
                "count ", M,
                " (the fixed decomposition is what keeps gradients "
                "replica-count independent)"));
    if (opts.topology.numDevices() < R)
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat("topology has ",
                                   opts.topology.numDevices(),
                                   " devices but the run needs ", R));
    if (opts.microbatch_size == 0)
        return Status::failure(ErrorCode::InvalidArgument,
                               "microbatch_size must be positive");

    // Per-replica handles share one validated-script cache; async off
    // because the driver consumes each microbatch's loss and gradient
    // immediately; rpw pinned so every replica runs one kernel shape.
    vpps::ScriptCache script_cache;
    vpps::VppsOptions vopts = opts.vpps;
    vopts.async = false;
    if (vopts.rpw == 0) vopts.rpw = 2;
    vopts.script_cache = &script_cache;

    std::vector<Replica> replicas;
    replicas.reserve(R);
    for (std::size_t r = 0; r < R; ++r)
    {
        Replica rep;
        rep.ctx = factory(r);
        if (!rep.ctx)
            return Status::failure(
                ErrorCode::InvalidArgument,
                common::detail::concat("replica factory returned "
                                       "null for replica ",
                                       r));
        auto handle = vpps::Handle::tryCreate(
            rep.ctx->bench().model(), rep.ctx->device(), vopts);
        if (!handle.ok()) return handle.takeStatus();
        rep.handle = std::move(handle.value());
        replicas.push_back(std::move(rep));
    }

    // Replicas must start from identical parameter bits (same seeds
    // in the factory); anything else silently breaks the determinism
    // contract, so refuse up front.
    const std::vector<float> params0 = captureParams(
        replicas[0].ctx->bench().model(), replicas[0].ctx->device());
    for (std::size_t r = 1; r < R; ++r)
    {
        const std::vector<float> pr = captureParams(
            replicas[r].ctx->bench().model(),
            replicas[r].ctx->device());
        if (pr.size() != params0.size() ||
            std::memcmp(pr.data(), params0.data(),
                        params0.size() * sizeof(float)) != 0)
            return Status::failure(
                ErrorCode::InvalidArgument,
                common::detail::concat(
                    "replica ", r,
                    " does not start bitwise identical to replica 0 "
                    "(the factory must build every replica from the "
                    "same seeds)"));
    }

    const graph::Model& model0 = replicas[0].ctx->bench().model();
    const std::uint64_t grad_bytes =
        static_cast<std::uint64_t>(model0.totalScalars()) * 4;

    // Price the collective once: the cost is payload-shaped, not
    // data-shaped, so it is the same every step.
    auto full_cost = gpusim::allReduceCost(
        opts.topology, opts.algo, grad_bytes, R, kChunks);
    if (!full_cost.ok()) return full_cost.takeStatus();
    auto bucket_cost = gpusim::allReduceCost(
        opts.topology, opts.algo,
        gpusim::ceilDiv(grad_bytes, kBuckets), R, kChunks);
    if (!bucket_cost.ok()) return bucket_cost.takeStatus();
    const double full_us = full_cost.value().totalUs();
    const double bucket_us = bucket_cost.value().totalUs();

    DataParallelReport report;
    const std::size_t per_replica = M / R;
    double t_job = 0.0;
    std::size_t next_input = 0;

    for (std::size_t step = 0; step < opts.steps; ++step)
    {
        // -- Compute phase: every replica runs its contiguous
        // microbatch group gradient-only. The driver loop is serial
        // host code over independent simulated devices; "parallel"
        // execution is expressed in the time model (the step charges
        // the max over replicas, not the sum).
        std::vector<float> losses(M, 0.0f);
        std::vector<std::vector<float>> grads(M);
        double compute_us = 0.0;   //!< per-step compute makespan
        double last_micro_us = 0.0; //!< bottleneck's last microbatch
        for (std::size_t r = 0; r < R; ++r)
        {
            Replica& rep = replicas[r];
            gpusim::Device& dev = rep.ctx->device();
            graph::Model& model = rep.ctx->bench().model();
            const double busy0 = dev.busyUs();
            double micro_us = 0.0;
            for (std::size_t i = 0; i < per_replica; ++i)
            {
                const std::size_t m = r * per_replica + i;
                const double micro0 = dev.busyUs();
                // Training is back-to-back busy work, so the wall
                // clock (which device-domain fault schedules key on)
                // tracks the busy accumulator.
                dev.advanceClockTo(micro0);
                graph::ComputationGraph cg;
                graph::Expr loss = buildSuperGraph(
                    rep.ctx->bench(), cg,
                    next_input + m * opts.microbatch_size,
                    opts.microbatch_size);
                auto res = rep.handle->fbGradTry(model, cg, loss);
                if (!res.ok())
                {
                    // A lost replica ends the run with a structured
                    // error; the completed prefix's aggregates stand.
                    report.status = res.takeStatus();
                    report.completed = false;
                    report.total_us = t_job;
                    report.final_params = captureParams(
                        model0, replicas[0].ctx->device());
                    return report;
                }
                losses[m] = res.value();
                grads[m] = captureGrads(model, dev);
                micro_us = dev.busyUs() - micro0;
            }
            const double delta = dev.busyUs() - busy0;
            if (delta > compute_us)
            {
                compute_us = delta;
                last_micro_us = micro_us;
            }
        }

        // -- Canonical reduction: one pairwise tree over all M
        // microbatch losses/gradients, independent of R and of the
        // priced transport.
        const float step_loss = reduceScalars(losses);
        const std::vector<float> grad = reduceVectors(grads);
        report.losses.push_back(step_loss);

        // -- Update phase: identical arithmetic on every replica.
        double update_us = 0.0;
        for (std::size_t r = 0; r < R; ++r)
            update_us = applyUpdate(replicas[r].ctx->bench().model(),
                                    replicas[r].ctx->device(), grad);

        // -- Comm schedules. Overlap: buckets become ready at evenly
        // spaced points across the last microbatch's backward window
        // (modeled as its second half) and stream through the
        // interconnect back to back; only comm outliving compute is
        // exposed. Barrier: the full all-reduce follows compute.
        const double window = last_micro_us * 0.5;
        const double window_start = compute_us - window;
        double finish = 0.0;
        std::vector<double> bucket_start(kBuckets, 0.0);
        for (std::size_t b = 0; b < kBuckets; ++b)
        {
            const double ready =
                window_start + window *
                                   (static_cast<double>(b + 1) /
                                    static_cast<double>(kBuckets));
            bucket_start[b] = std::max(ready, finish);
            finish = bucket_start[b] + bucket_us;
        }
        const double comm_done = finish;
        const double exposed =
            std::max(0.0, comm_done - compute_us);
        const double step_overlap =
            std::max(compute_us, comm_done) + update_us;
        const double step_barrier =
            compute_us + full_us + update_us;
        const double charged =
            opts.overlap ? step_overlap : step_barrier;

        // Bring every replica's clock to the end of the charged
        // schedule: the sync point a real collective imposes.
        for (std::size_t r = 0; r < R; ++r)
        {
            gpusim::Device& dev = replicas[r].ctx->device();
            const double target = t_job + charged;
            if (target > dev.busyUs())
                dev.chargeTime(target - dev.busyUs());
            dev.advanceClockTo(dev.busyUs());
        }

        // -- Comm lane + metrics (driver-serial, so emission order
        // is deterministic at any host thread count).
        if (opts.tracer)
        {
            if (opts.overlap)
            {
                for (std::size_t b = 0; b < kBuckets; ++b)
                    opts.tracer->complete(
                        obs::kLaneComm, "comm", "allreduce_bucket",
                        t_job + bucket_start[b], bucket_us,
                        static_cast<std::int64_t>(step),
                        static_cast<double>(b),
                        static_cast<double>(
                            gpusim::ceilDiv(grad_bytes, kBuckets)));
                opts.tracer->instant(
                    obs::kLaneComm, "comm", "allreduce_done",
                    t_job + comm_done,
                    static_cast<std::int64_t>(step), exposed,
                    static_cast<double>(R));
            }
            else
            {
                opts.tracer->complete(
                    obs::kLaneComm, "comm", "allreduce",
                    t_job + compute_us, full_us,
                    static_cast<std::int64_t>(step),
                    static_cast<double>(grad_bytes),
                    static_cast<double>(R));
            }
        }
        const gpusim::CollectiveCost& wire =
            opts.overlap ? bucket_cost.value() : full_cost.value();
        const std::uint64_t wire_mult = opts.overlap ? kBuckets : 1;
        report.comm_messages += wire.messages * wire_mult;
        report.comm_bytes_on_wire += wire.bytes_on_wire * wire_mult;
        if (opts.metrics)
        {
            opts.metrics->counter("comm.allreduces").add();
            opts.metrics->counter("comm.messages")
                .add(wire.messages * wire_mult);
            opts.metrics->counter("comm.bytes_on_wire")
                .add(wire.bytes_on_wire * wire_mult);
            opts.metrics->gauge("comm.allreduce_us").add(full_us);
            opts.metrics->gauge("comm.exposed_us").add(exposed);
            opts.metrics->counter("dp.steps").add();
            opts.metrics->counter("dp.microbatches").add(M);
            opts.metrics->gauge("dp.compute_us").add(compute_us);
            opts.metrics->gauge("dp.update_us").add(update_us);
        }

        report.compute_us += compute_us;
        report.allreduce_us += full_us;
        report.exposed_comm_us += exposed;
        report.update_us += update_us;
        report.overlap_total_us += step_overlap;
        report.barrier_total_us += step_barrier;
        t_job += charged;
        ++report.steps_done;
        next_input = (next_input + M * opts.microbatch_size) %
                     replicas[0].ctx->bench().datasetSize();
    }

    report.total_us = t_job;
    report.final_params =
        captureParams(model0, replicas[0].ctx->device());
    report.replicas_identical = true;
    for (std::size_t r = 1; r < R; ++r)
    {
        const std::vector<float> pr = captureParams(
            replicas[r].ctx->bench().model(),
            replicas[r].ctx->device());
        if (pr.size() != report.final_params.size() ||
            std::memcmp(pr.data(), report.final_params.data(),
                        pr.size() * sizeof(float)) != 0)
            report.replicas_identical = false;
    }
    for (const Replica& rep : replicas)
        report.recoveries +=
            rep.handle->stats().recovery.totalRecoveries();
    report.completed = true;
    return report;
}

} // namespace train

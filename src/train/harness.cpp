#include "train/harness.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace train {

graph::Expr
buildSuperGraph(models::BenchmarkModel& bm, graph::ComputationGraph& cg,
                std::size_t start, std::size_t batch)
{
    if (batch == 0)
        common::panic("buildSuperGraph: batch size must be positive");
    std::vector<graph::Expr> losses;
    losses.reserve(batch);
    const std::size_t n = bm.datasetSize();
    for (std::size_t i = 0; i < batch; ++i)
        losses.push_back(bm.buildLoss(cg, (start + i) % n));
    return graph::sumLosses(std::move(losses));
}

ThroughputResult
measureExecutor(exec::Executor& executor, models::BenchmarkModel& bm,
                std::size_t num_inputs, std::size_t batch_size)
{
    executor.resetStats();
    ThroughputResult r;
    r.system = executor.name();
    r.batch_size = batch_size;

    std::size_t trained = 0;
    while (trained < num_inputs) {
        graph::ComputationGraph cg;
        graph::Expr loss =
            buildSuperGraph(bm, cg, trained, batch_size);
        r.last_loss = executor.trainBatch(bm.model(), cg, loss);
        trained += batch_size;
    }

    const auto& s = executor.stats();
    r.cpu_us = s.cpu_us;
    r.gpu_us = s.gpu_us;
    r.launches = s.launches;
    r.wall_us = s.totalUs();
    r.inputs_per_sec =
        static_cast<double>(trained) / (r.wall_us * 1e-6);
    return r;
}

ThroughputResult
measureVpps(vpps::Handle& handle, models::BenchmarkModel& bm,
            std::size_t num_inputs, std::size_t batch_size)
{
    handle.resetStats();
    ThroughputResult r;
    r.system = "VPPS";
    r.batch_size = batch_size;

    std::size_t trained = 0;
    while (trained < num_inputs) {
        graph::ComputationGraph cg;
        graph::Expr loss =
            buildSuperGraph(bm, cg, trained, batch_size);
        handle.fb(bm.model(), cg, loss);
        trained += batch_size;
    }
    r.last_loss = handle.sync_get_latest_loss();

    const auto& s = handle.stats();
    r.cpu_us = s.cpuUs();
    r.gpu_us = s.gpuUs();
    r.wall_us = s.wall_us;
    r.inputs_per_sec =
        static_cast<double>(trained) / (r.wall_us * 1e-6);
    return r;
}

TrainCheckpoint
captureCheckpoint(const graph::Model& model,
                  const gpusim::Device& device, std::size_t next_input)
{
    TrainCheckpoint ckpt;
    ckpt.next_input = next_input;
    ckpt.learning_rate = model.learning_rate;
    ckpt.weight_decay = model.weight_decay;
    model.gather(device, graph::ParamBuffer::Value, ckpt.params);
    if (obs::Tracer* tracer = device.tracer())
        tracer->instant(obs::kLaneHost, "train", "checkpoint",
                        device.busyUs(),
                        static_cast<std::int64_t>(next_input),
                        static_cast<double>(ckpt.params.size()));
    if (obs::MetricsRegistry* mx = device.metrics())
        mx->counter("train.checkpoints").add();
    return ckpt;
}

common::Status
restoreCheckpoint(const TrainCheckpoint& ckpt, graph::Model& model,
                  gpusim::Device& device)
{
    // Validate before mutating anything: a size mismatch means the
    // checkpoint was captured from a different model, and a partial
    // restore would corrupt the parameters it was meant to protect.
    const std::size_t needed = model.totalScalars();
    if (needed > ckpt.params.size())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            common::detail::concat(
                "checkpoint holds ", ckpt.params.size(),
                " floats but the model needs ", needed,
                "; was it captured from a different model?"));

    model.learning_rate = ckpt.learning_rate;
    model.weight_decay = ckpt.weight_decay;
    model.scatter(device, graph::ParamBuffer::Value, ckpt.params);
    if (obs::Tracer* tracer = device.tracer())
        tracer->instant(obs::kLaneHost, "train", "restore",
                        device.busyUs(),
                        static_cast<std::int64_t>(ckpt.next_input),
                        static_cast<double>(ckpt.params.size()));
    if (obs::MetricsRegistry* mx = device.metrics())
        mx->counter("train.restores").add();
    return common::Status();
}

RecoveryReport
measureVppsRecoverable(vpps::Handle& handle, gpusim::Device& device,
                       models::BenchmarkModel& bm,
                       std::size_t num_inputs, std::size_t batch_size,
                       const RecoveryOptions& opts)
{
    handle.resetStats();
    RecoveryReport rep;
    rep.throughput.system = "VPPS+recovery";
    rep.throughput.batch_size = batch_size;

    // Epoch-periodic default: one checkpoint per pass over the
    // dataset.
    std::size_t every = opts.checkpoint_every_batches;
    if (every == 0)
        every = std::max<std::size_t>(
            1, (bm.datasetSize() + batch_size - 1) / batch_size);

    graph::Model& model = bm.model();
    TrainCheckpoint ckpt = captureCheckpoint(model, device, 0);
    ++rep.checkpoints;

    std::size_t trained = 0;
    std::size_t batches_since_ckpt = 0;
    while (trained < num_inputs) {
        graph::ComputationGraph cg;
        graph::Expr loss =
            buildSuperGraph(bm, cg, trained, batch_size);
        auto r = handle.fbTry(model, cg, loss);
        if (!r.ok()) {
            rep.last_error = r.status().toString();
            if (rep.restores >= opts.max_restores) {
                common::warn("measureVppsRecoverable: abandoning "
                             "training after ",
                             rep.restores, " restores; last error: ",
                             rep.last_error);
                break;
            }
            ++rep.restores;
            rep.replayed_batches +=
                (trained - ckpt.next_input) / batch_size;
            if (auto st = restoreCheckpoint(ckpt, model, device);
                !st.ok()) {
                // Cannot happen for checkpoints captured in this
                // loop, but a caller-supplied mismatched checkpoint
                // must not abort training.
                rep.last_error = st.toString();
                break;
            }
            trained = ckpt.next_input;
            batches_since_ckpt = 0;
            continue;
        }
        rep.throughput.last_loss = r.value();
        trained += batch_size;
        if (++batches_since_ckpt >= every && trained < num_inputs) {
            ckpt = captureCheckpoint(model, device, trained);
            ++rep.checkpoints;
            batches_since_ckpt = 0;
        }
    }
    rep.completed = trained >= num_inputs;
    rep.throughput.last_loss = handle.sync_get_latest_loss();

    const auto& s = handle.stats();
    rep.throughput.cpu_us = s.cpuUs();
    rep.throughput.gpu_us = s.gpuUs();
    rep.throughput.wall_us = s.wall_us;
    if (rep.throughput.wall_us > 0.0)
        rep.throughput.inputs_per_sec =
            static_cast<double>(trained) /
            (rep.throughput.wall_us * 1e-6);
    return rep;
}

} // namespace train

#include "serve/service_time.hpp"

#include <algorithm>

#include "train/harness.hpp"

namespace serve {

double
nodesPerItemPrior(models::BenchmarkModel& bm)
{
    graph::ComputationGraph cg;
    bm.buildLoss(cg, 0);
    return std::max<double>(1.0, static_cast<double>(cg.size()));
}

TimedInference
timedInfer(vpps::Handle& handle, gpusim::Device& device,
           graph::Model& model, graph::ComputationGraph& cg,
           graph::Expr loss)
{
    const double wall_before = handle.stats().wall_us;
    const double busy_before = device.busyUs();
    auto r = handle.inferTry(model, cg, loss);
    double dur = r.ok() ? handle.stats().wall_us - wall_before
                        : device.busyUs() - busy_before;
    if (dur < 1.0)
        dur = 1.0;
    return {std::move(r), dur};
}

double
probeBatchUs(vpps::Handle& handle, gpusim::Device& device,
             models::BenchmarkModel& bm, std::size_t items)
{
    for (int attempt = 0; attempt < 3; ++attempt) {
        graph::ComputationGraph cg;
        const graph::Expr loss = train::buildSuperGraph(bm, cg, 0, items);
        const TimedInference t =
            timedInfer(handle, device, bm.model(), cg, loss);
        if (t.result.ok())
            return t.dur_us;
    }
    return -1.0;
}

BacklogEstimate
estimateBacklog(const Batcher& queue, BrownoutLevel level, double now_us,
                double free_at_us, double gate_us, std::size_t live,
                const std::function<double(std::size_t)>& batch_us)
{
    const std::size_t depth = queue.depth();
    const std::size_t m = queue.policy().max_batch;
    BacklogEstimate est;
    est.start_us = std::max({now_us, free_at_us, gate_us});
    if (live > 0)
        est.start_us +=
            static_cast<double>(depth / std::max<std::size_t>(1, m)) *
            batch_us(m) / static_cast<double>(live);
    est.service_us =
        queue.windowUs(level) + batch_us(std::min(depth + 1, m));
    return est;
}

} // namespace serve

/**
 * @file
 * How the serving front ends size, admit against and time a batch.
 *
 * The Server and the Fleet share each of these rules: the sizing
 * probe, the nodes-per-item prior, the backlog estimate admission
 * weighs against a deadline, and the simulated time a dispatch
 * occupies its device. The explorer and bench/fleet_failover size
 * their arrival streams with the same probe. Each is written once, so
 * folding one front end into the other moves none of them.
 */
#pragma once

#include <cstddef>
#include <functional>

#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "models/benchmark_model.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "vpps/handle.hpp"

namespace serve {

/** @return the node count of input 0's graph, at least 1: the
 *  analytic prior for a batch's size until calibration measures
 *  one. */
double nodesPerItemPrior(models::BenchmarkModel& bm);

/** One serving inference and the simulated time it occupies. */
struct TimedInference
{
    common::Result<float> result;
    double dur_us = 0.0;
};

/**
 * Run @p loss through @p handle's inferTry() and time it, at least
 * 1 us so completion strictly follows dispatch.
 *
 * On success the time is the handle's wall delta. fbTry books every
 * device charge of the batch, stalls included, into the pipeline as
 * gpu_us, and a serving handle is synchronous, so the wall delta is
 * cpu_us more than the device's busy delta and never less. On
 * failure it is the device time the failed attempts burned.
 */
TimedInference timedInfer(vpps::Handle& handle, gpusim::Device& device,
                          graph::Model& model,
                          graph::ComputationGraph& cg, graph::Expr loss);

/**
 * Time a batch of inputs 0 .. @p items - 1 (modulo the dataset)
 * through timedInfer(), up to three attempts. @return its time, us,
 * or -1 when every attempt fails.
 */
double probeBatchUs(vpps::Handle& handle, gpusim::Device& device,
                    models::BenchmarkModel& bm, std::size_t items);

/** What admission weighs against an arriving request's deadline. */
struct BacklogEstimate
{
    double start_us = 0.0;   //!< earliest instant its batch can start
    double service_us = 0.0; //!< batching window plus that batch
};

/**
 * The backlog estimate both front ends admit by. For a request
 * arriving at @p now_us behind @p queue's depth at brown-out @p level:
 *
 *   start   = max(now, free_at, gate)
 *             + floor(depth / max_batch) * batch_us(max_batch) / live
 *   service = window(level) + batch_us(min(depth + 1, max_batch))
 *
 * @param free_at_us earliest instant a serving device frees up
 * @param gate_us    retry-backoff gate; 0 where there is none
 * @param live       replicas draining the queue. With none the start
 *                   stays at free_at, +inf, rather than dividing by 0.
 * @param batch_us   estimated service time of an n-item batch, us
 *
 * The Server is the case live = 1. The Fleet routes requests one at
 * a time with no window and no gate: max_batch 1, window 0, gate 0.
 * Both reductions are exact in floating point. x / 1.0 == x for
 * every x, and 0.0 + x == x for every x these inputs can take: a
 * service time is positive, never -0.0, and a clock never reads
 * -0.0, so max(now, free_at, 0.0) is max(now, free_at). Each front
 * end therefore computes the bits its own formula did.
 */
BacklogEstimate
estimateBacklog(const Batcher& queue, BrownoutLevel level, double now_us,
                double free_at_us, double gate_us, std::size_t live,
                const std::function<double(std::size_t)>& batch_us);

} // namespace serve

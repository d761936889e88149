/**
 * @file
 * Data-parallel VPPS training over a modeled interconnect (DESIGN.md
 * section 4.11).
 *
 * R replicas -- each its own simulated Device running its own
 * JIT-specialized VPPS handle -- train one model on sharded batches:
 * every step's global batch is decomposed into M fixed microbatches
 * (R must divide M), replica r computes the contiguous group
 * [r*M/R, (r+1)*M/R) with gradient-only forward-backward passes
 * (Handle::fbGradTry), the M microbatch gradients are all-reduced,
 * and every replica applies the identical SGD update.
 *
 * Determinism contract (the headline invariant of
 * dist_determinism_test): losses and parameters are *bitwise
 * identical* at any replica count, any host thread count, and under
 * either all-reduce algorithm, with or without recovered transient
 * faults. It holds because the replica count only moves *where* a
 * microbatch is computed (timing), never the arithmetic: the step
 * gradient is always the canonical pairwise tree over the same M
 * microbatch gradients (train/collective.hpp), and the collective
 * algorithm is priced by gpusim::allReduceCost without touching a
 * float.
 *
 * The comm schedule can overlap the all-reduce against the tail of
 * the backward phase: the gradient is split into buckets that become
 * ready at evenly spaced points across the last microbatch's
 * backward window and stream through the interconnect as they do, so
 * only the part of comm time that outlives compute is exposed. Both
 * the overlapped and the barrier-after-backward schedule are priced
 * every step (the bench reports their ratio); opts.overlap picks
 * which one the simulated clock charges.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "models/benchmark_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vpps/distribution.hpp"
#include "vpps/handle.hpp"

namespace train {

/**
 * One replica's world: a simulated device plus the benchmark model
 * (and its dataset) built on it. The factory constructs every
 * replica from the *same seeds*, so all replicas start from
 * identical parameters -- the driver checks and refuses otherwise.
 * Tests install per-replica fault injectors here.
 */
class ReplicaContext
{
  public:
    virtual ~ReplicaContext() = default;
    virtual gpusim::Device& device() = 0;
    virtual models::BenchmarkModel& bench() = 0;
};

using ReplicaFactory =
    std::function<std::unique_ptr<ReplicaContext>(std::size_t)>;

/** Knobs for trainDataParallel(). */
struct DataParallelOptions
{
    /** Replica (device) count; must divide `microbatches`. */
    std::size_t replicas = 1;

    /** Fixed microbatch count M per step. The decomposition -- not
     *  the replica count -- defines the gradient arithmetic, so M
     *  must not change across the configurations being compared. */
    std::size_t microbatches = 8;

    /** Dataset items per microbatch. */
    std::size_t microbatch_size = 4;

    /** Training steps to run. */
    std::size_t steps = 4;

    /** Interconnect connecting the replica devices; needs at least
     *  `replicas` devices. */
    gpusim::Topology topology =
        gpusim::Topology::uniform(8, gpusim::LinkType::NVLink);

    /** All-reduce transport to price (never affects arithmetic). */
    gpusim::Collective algo = gpusim::Collective::RingAllReduce;

    /** Charge the overlapped schedule (true) or the
     *  barrier-after-backward baseline (false). */
    bool overlap = true;

    /** Per-replica handle options. async is forced off (the driver
     *  needs each microbatch's loss and gradient immediately) and
     *  rpw defaults to 2 when unset (a pinned specialization keeps
     *  every replica on the same kernel). */
    vpps::VppsOptions vpps;

    /** Optional driver-level comm trace (kLaneComm) sink. */
    obs::Tracer* tracer = nullptr;

    /** Optional comm.* / dp.* metrics sink. */
    obs::MetricsRegistry* metrics = nullptr;
};

/** What one data-parallel run did. */
struct DataParallelReport
{
    /** True when every step finished; false when a replica was lost
     *  (status then holds the structured error and the aggregates
     *  cover the completed prefix). */
    bool completed = false;
    common::Status status;

    std::size_t steps_done = 0;

    /** Canonical per-step global loss (pairwise tree over the M
     *  microbatch losses). */
    std::vector<float> losses;

    /** Final parameters of replica 0, in graph::Model::gather()'s
     *  layout (the TrainCheckpoint layout). */
    std::vector<float> final_params;

    /** All replicas ended with bitwise-identical parameters. */
    bool replicas_identical = false;

    /** @name Simulated-time accounting, us
     *  @{ */
    /** Job makespan under the charged schedule. */
    double total_us = 0.0;
    /** Sum over steps of the per-step compute makespan. */
    double compute_us = 0.0;
    /** Raw all-reduce cost, before overlap hides any of it. */
    double allreduce_us = 0.0;
    /** Comm time not hidden under compute (overlapped schedule). */
    double exposed_comm_us = 0.0;
    /** Post-all-reduce SGD update kernels. */
    double update_us = 0.0;
    /** Job makespan the overlapped schedule would take. */
    double overlap_total_us = 0.0;
    /** Job makespan the barrier schedule would take. */
    double barrier_total_us = 0.0;
    /** @} */

    /** @name Wire accounting (all steps)
     *  @{ */
    std::uint64_t comm_messages = 0;
    std::uint64_t comm_bytes_on_wire = 0;
    /** @} */

    /** Recovery actions summed over replicas (transient faults). */
    std::uint64_t recoveries = 0;
};

/**
 * Run data-parallel training. Configuration errors (replica count
 * not dividing M, topology too small, handle creation failure,
 * replicas that do not start bitwise identical) return a failure
 * Result; runtime device loss returns a report with completed ==
 * false and the structured error in report.status.
 */
common::Result<DataParallelReport>
trainDataParallel(const ReplicaFactory& factory,
                  const DataParallelOptions& opts);

} // namespace train

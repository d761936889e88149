/**
 * @file
 * Training/measurement harness shared by the benches and examples.
 *
 * Builds per-batch super-graphs (losses of B inputs summed, Section
 * III-D), trains them through either a baseline executor or a VPPS
 * handle, and reports simulated training throughput the way the
 * paper's figures do (inputs per second across batch sizes).
 */
#pragma once

#include <string>

#include "exec/executor.hpp"
#include "models/benchmark_model.hpp"
#include "vpps/handle.hpp"

namespace train {

/** One measured configuration. */
struct ThroughputResult
{
    std::string system;
    std::size_t batch_size = 0;

    /** Simulated training throughput, inputs per second. */
    double inputs_per_sec = 0.0;

    /** Simulated wall time for the measured inputs, us. */
    double wall_us = 0.0;

    double cpu_us = 0.0;
    double gpu_us = 0.0;
    std::uint64_t launches = 0;
    float last_loss = 0.0f;
};

/**
 * Build the super-graph for inputs [start, start + batch) of the
 * model's dataset (wrapping around) into @p cg.
 *
 * @return the aggregated loss expression.
 */
graph::Expr buildSuperGraph(models::BenchmarkModel& bm,
                            graph::ComputationGraph& cg,
                            std::size_t start, std::size_t batch);

/**
 * Train @p num_inputs inputs at the given batch size through a
 * baseline executor (synchronous host/device) and report throughput.
 */
ThroughputResult measureExecutor(exec::Executor& executor,
                                 models::BenchmarkModel& bm,
                                 std::size_t num_inputs,
                                 std::size_t batch_size);

/**
 * Train @p num_inputs inputs through VPPS (pipelined host/device) and
 * report throughput.
 */
ThroughputResult measureVpps(vpps::Handle& handle,
                             models::BenchmarkModel& bm,
                             std::size_t num_inputs,
                             std::size_t batch_size);

/**
 * A point-in-time training state: every parameter's master values
 * (weights, biases, embedding tables -- the SGD optimizer state is
 * exactly these plus the scalar hyper-parameters) and the dataset
 * position to resume from. Restoring it replays training forward
 * deterministically, so recovered runs end bitwise identical to
 * uninterrupted ones.
 */
struct TrainCheckpoint
{
    std::size_t next_input = 0;
    float learning_rate = 0.0f;
    float weight_decay = 0.0f;
    /** All parameter values in graph::Model::gather()'s layout. */
    std::vector<float> params;
};

/** Copy the training state out of device memory. */
TrainCheckpoint captureCheckpoint(const graph::Model& model,
                                  const gpusim::Device& device,
                                  std::size_t next_input);

/**
 * Write a checkpoint's state back into the model and device.
 * @return an error (with the model untouched) when the checkpoint
 * does not hold enough floats for this model.
 */
common::Status restoreCheckpoint(const TrainCheckpoint& ckpt,
                                 graph::Model& model,
                                 gpusim::Device& device);

/** Knobs for measureVppsRecoverable(). */
struct RecoveryOptions
{
    /** Batches between checkpoints; 0 checkpoints once per dataset
     *  pass ("epoch-periodic"). */
    std::size_t checkpoint_every_batches = 0;

    /** Checkpoint restores allowed before training is abandoned. */
    std::size_t max_restores = 8;
};

/** What happened during a recoverable training run. */
struct RecoveryReport
{
    ThroughputResult throughput;

    /** Checkpoints captured (including the initial one). */
    std::uint64_t checkpoints = 0;

    /** Restores performed after unrecoverable batch errors. */
    std::uint64_t restores = 0;

    /** Previously-completed batches discarded and retrained. */
    std::uint64_t replayed_batches = 0;

    /** True when all requested inputs finished training. */
    bool completed = false;

    /** Diagnostics of the last fbTry() error ("" if none). */
    std::string last_error;
};

/**
 * measureVpps() with checkpointed recovery: trains through fbTry(),
 * captures epoch-periodic parameter+optimizer checkpoints, and on an
 * unrecoverable batch error restores the latest checkpoint and
 * replays from its dataset position (up to opts.max_restores times).
 * Because checkpoints snapshot the exact parameter bits and batch
 * composition is a pure function of the dataset position, a recovered
 * run's final parameters are bitwise identical to a fault-free run's.
 */
RecoveryReport measureVppsRecoverable(vpps::Handle& handle,
                                      gpusim::Device& device,
                                      models::BenchmarkModel& bm,
                                      std::size_t num_inputs,
                                      std::size_t batch_size,
                                      const RecoveryOptions& opts = {});

} // namespace train

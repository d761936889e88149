/**
 * @file
 * The benchmark's workloads. Each runs in its own process, sets up its
 * rig several times (setup_s is the median), then drives the library
 * for the requested host seconds and reports raw measurements for
 * run.py, which derives the metrics and checks the outputs.
 *
 * An untraced run measures the end-to-end metrics. A traced run first
 * repeats the untraced measurement (the overhead baseline), then
 * replays the same ops on a fresh rig with host-clock spans around
 * each library call, for the per-layer metrics.
 */
#pragma once

#include <cstdint>
#include <string>

#include "spans.hpp"

namespace perfbench {

/** Command-line settings shared by every workload. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

/** Tree-LSTM training; train_timing or train_functional. */
void runTrain(const RunArgs& args, Report& report);

/** A networked, durable three-replica serve::Fleet. */
void runServe(const RunArgs& args, Report& report);

/** Throughput of the public tensor kernels at the model's 256-wide
 *  shapes, G MAC/s (traced runs only). */
void probeTensorKernels(SpanRecorder& spans, Report& report);

} // namespace perfbench

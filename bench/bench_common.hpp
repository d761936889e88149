/**
 * @file
 * Shared rig for the benchmark harnesses.
 *
 * Provides the paper's evaluation setup (Section IV): a simulated
 * Titan V, synthetic SST / WikiNER corpora, the six applications at
 * their published dimensions, helpers that measure simulated
 * training throughput for VPPS and the baselines, and the one row
 * format every bench reports through. Benches run the simulator in
 * timing-only mode (identical simulated durations, no functional
 * float math) so the whole suite finishes quickly.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/agenda_batch_executor.hpp"
#include "exec/depth_batch_executor.hpp"
#include "exec/fold_executor.hpp"
#include "exec/naive_executor.hpp"
#include "models/benchmark_model.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace benchx {

/** Batch sizes the paper sweeps (Figs 8, 9, 12; Table I). */
inline const std::vector<std::size_t> kBatchSizes = {1, 2, 4,  8,
                                                     16, 32, 64, 128};

/** The synthetic evaluation corpora. */
struct Corpora
{
    common::Rng rng{2024};
    data::Vocab vocab{10000};
    data::Treebank bank{vocab, 256, rng, 19.0, 4, 36};
    data::NerCorpus ner{vocab, 256, rng, 24.0, 5, 40};
};

/**
 * One application instance on its own simulated device.
 *
 * @param app one of "Tree-LSTM", "BiLSTM", "BiLSTMwChar", "TD-RNN",
 *        "TD-LSTM", "RvNN"
 * @param hidden/embed 0 selects the paper's setting for that app
 */
class AppRig
{
  public:
    explicit AppRig(const std::string& app, std::uint32_t hidden = 0,
                    std::uint32_t embed = 0, bool functional = false);

    /** Measure a baseline at one batch size (fresh executor). */
    train::ThroughputResult
    measureBaseline(const std::string& which, std::size_t num_inputs,
                    std::size_t batch);

    /** Measure VPPS at one batch size (fresh handle). */
    train::ThroughputResult
    measureVpps(std::size_t num_inputs, std::size_t batch,
                vpps::VppsOptions opts = defaultOptions());

    /** Inputs to train per measurement point: enough batches that
     *  the host/device pipeline reaches steady state. */
    static std::size_t
    pointInputs(std::size_t batch)
    {
        return std::max<std::size_t>(48, 6 * batch);
    }

    /** Paper-default VPPS knobs used by the figure benches. */
    static vpps::VppsOptions
    defaultOptions()
    {
        vpps::VppsOptions opts;
        opts.rpw = 2;
        return opts;
    }

    gpusim::Device& device() { return *device_; }
    models::BenchmarkModel& model() { return *model_; }

  private:
    Corpora corpora_;
    std::unique_ptr<gpusim::Device> device_;
    common::Rng param_rng_{99};
    std::unique_ptr<models::BenchmarkModel> model_;
};

/**
 * Command-line knobs shared by the benches:
 *
 *   --threads N    host interpreter threads for VPPS measurements,
 *                  a whole positive decimal (without the flag:
 *                  VPPS_HOST_THREADS, else serial)
 *   --json         print each row as one JSON line instead of tables
 *   --functional   run the functional float math too (the default is
 *                  timing-only); interpretation then dominates host
 *                  wall-clock, which is what the host-parallel engine
 *                  accelerates
 *   --vpps-only    skip the baseline executors (they are serial by
 *                  design and would swamp host wall-clock comparisons)
 *   --trace F      write a Chrome-trace JSON of the simulated run to
 *                  F (open in chrome://tracing or ui.perfetto.dev);
 *                  --trace=F also accepted
 *   --metrics F    write the metrics-registry JSON dump to F
 *
 * plus the bench's own on/off flags (`--faults`, `--smoke`).
 */
struct BenchCli
{
    int threads = 0;
    bool json = false;
    bool functional = false;
    bool vpps_only = false;
    std::string trace_path;   //!< empty = tracing off
    std::string metrics_path; //!< empty = no metrics dump
    std::vector<std::string> given; //!< the bench's own flags given

    /** @return whether the bench's own flag @p flag was given. */
    bool
    has(const std::string& flag) const
    {
        return std::find(given.begin(), given.end(), flag) !=
               given.end();
    }
};

/**
 * Parse the shared flags and the bench's own @p own_flags; exits with
 * usage on anything else.
 */
BenchCli parseBenchArgs(int argc, char** argv,
                        const std::vector<std::string>& own_flags = {});

/**
 * RAII observability attachment for a bench: installs a tracer and a
 * metrics registry on @p device according to the --trace/--metrics
 * flags (a no-op when neither was given), and on destruction
 * publishes the device gauges, writes both files, and detaches.
 * Attach one scope per device whose run should be captured.
 */
class ObsScope
{
  public:
    ObsScope(gpusim::Device& device, const BenchCli& cli);
    ~ObsScope();

    ObsScope(const ObsScope&) = delete;
    ObsScope& operator=(const ObsScope&) = delete;

    bool enabled() const { return tracer_ || metrics_; }
    obs::Tracer* tracer() { return tracer_.get(); }
    obs::MetricsRegistry* metrics() { return metrics_.get(); }

  private:
    gpusim::Device& device_;
    std::string trace_path_;
    std::string metrics_path_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::MetricsRegistry> metrics_;
};

/** Named results of one measurement, in print order; booleans go in
 *  as 0/1. */
using Fields = std::vector<std::pair<std::string, double>>;

/**
 * The one output path of every bench. A bench hands each measurement
 * over once, as a row of
 *
 *   bench         the binary's name
 *   config        comma-separated `key=value` pairs naming the
 *                 scenario: everything needed to reproduce the row
 *   fields        `sim_us` (the simulated duration, when the row has
 *                 one) and every other simulated result
 *   host_wall_ms  host wall-clock since the previous row, or since the
 *                 report began: the cost of simulating the row
 *
 * Under --json each row prints as one line,
 *   {"bench":...,"config":...,<fields...>,"host_wall_ms":...}
 * with every number in round-trip "%.17g" form (obs::appendJsonDouble),
 * so a last-bit move shows. Otherwise the rows render as tables under
 * a "== bench ==" heading: one table per run of consecutive rows that
 * share their config keys and field names, the last one when the
 * report is destroyed. tools/sim_parity.py checks every row of every
 * bench against the golden, bench/sim_golden.jsonl.
 */
class Report
{
  public:
    Report(const BenchCli& cli, std::string bench);
    ~Report();

    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    void row(const std::string& config, const Fields& fields);

  private:
    void flushTable();

    bool json_;
    std::string bench_;
    std::chrono::steady_clock::time_point last_;
    std::vector<std::string> columns_; //!< of the pending table
    std::optional<common::Table> table_;
};

/**
 * The throughput sweep of Figs 8, 9 and 12 and the BiGRU extension:
 * at every batch size of kBatchSizes, VPPS and then each of
 * @p baselines in order, all on @p rig. One row per batch: config
 * "<prefix>batch=B<suffix>"; fields `sim_us` (the VPPS run's),
 * `vpps_inputs_per_sec`, each baseline's rate (`dynet_db_inputs_per_sec`
 * for "DyNet-DB") and `vpps_over_best`, VPPS's rate over the best
 * baseline's. --vpps-only skips the baselines and the ratio.
 */
void throughputSweep(Report& report, AppRig& rig, const BenchCli& cli,
                     const std::string& prefix,
                     const std::string& suffix,
                     const std::vector<std::string>& baselines);

} // namespace benchx

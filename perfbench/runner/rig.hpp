/**
 * @file
 * The benchmark's own rig, built from public library APIs only: a
 * seeded synthetic treebank, and Tree-LSTM replicas (h = e = 256),
 * each on its own simulated device with a live vpps::Handle.
 *
 * Every generated input derives from the --seed argument; the library
 * receives only the generated corpus, parameters and arrivals. The
 * rig never touches process-wide allocator settings, so buffer-reuse
 * changes in the library show up in the measurements.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "gpusim/device.hpp"
#include "models/tree_lstm.hpp"
#include "spans.hpp"
#include "vpps/handle.hpp"
#include "vpps/script_exec.hpp"

namespace perfbench {

/** Hidden and embedding width of every benchmark model. */
constexpr std::uint32_t kWidth = 256;

/** Independent seeds for each generated stream, derived from --seed. */
struct Seeds
{
    explicit Seeds(std::uint64_t seed);

    std::uint64_t corpus;
    std::uint64_t params;
    std::uint64_t arrivals;
};

/**
 * A seeded corpus whose length profile is the same for every seed.
 * Item i has a fixed sentence length -- a quantile of the treebank's
 * SST-like length distribution, in a fixed shuffled order -- and is
 * the first unused sentence of that length in a seeded candidate
 * treebank, so tree shapes, words and labels come from the seed. The
 * fixed profile keeps the work per batch, and so the measurements,
 * comparable across seeds.
 */
struct Corpus
{
    Corpus(std::uint64_t seed, std::size_t items, SpanRecorder& spans,
           std::int64_t setup);

    /** Treebank sentence holding corpus item @p i (mod the size). */
    std::size_t
    sentence(std::size_t i) const
    {
        return index[i % index.size()];
    }

    std::unique_ptr<data::Vocab> vocab;
    std::unique_ptr<data::Treebank> bank; //!< the candidate sentences
    std::vector<std::size_t> index;       //!< item -> sentence
};

/** Sum of the losses of corpus items [start, start + batch). */
graph::Expr buildBatch(models::BenchmarkModel& bm, const Corpus& corpus,
                       graph::ComputationGraph& cg, std::size_t start,
                       std::size_t batch);

/** One Tree-LSTM on its own device, with a JIT-specialized handle. */
class Replica
{
  public:
    Replica(const Corpus& corpus, std::uint64_t param_seed,
            std::size_t pool_floats, bool functional,
            const vpps::VppsOptions& opts, SpanRecorder& spans,
            std::int64_t setup);

    gpusim::Device& device() { return *device_; }
    models::TreeLstmModel& model() { return *model_; }
    vpps::Handle& handle() { return *handle_; }

    /** FNV-1a 64 over every parameter's values in device memory. */
    std::uint64_t paramDigest() const;

    /** Copy every parameter into a reused host buffer, as fb() does
     *  before each batch when its NaN guard is on. */
    void snapshotParams();

  private:
    std::unique_ptr<gpusim::Device> device_;
    std::unique_ptr<models::TreeLstmModel> model_;
    std::unique_ptr<vpps::Handle> handle_;
    std::vector<float> snapshot_;
};

/** What one replayed batch produced (compare against fb()). */
struct ReplayResult
{
    float loss = 0.0f;
    double kernel_us = 0.0;
    std::uint64_t instructions = 0;
    double script_bytes = 0.0;
};

/**
 * Replay fb()'s fault-free path for one batch through the same public
 * steps -- pool mark, script generation, checksum, parameter snapshot
 * (functional device with the NaN guard on), gradient memset launch,
 * interpretation, pool reset -- each inside its own span. With
 * @p inference set, learning rate and weight decay are pinned to zero
 * for the batch, as Handle::inferTry() does. Returns the executor's
 * error when interpretation fails.
 */
common::Result<ReplayResult>
replayBatch(Replica& rig, vpps::ScriptExecutor& exec,
            graph::ComputationGraph& cg, graph::Expr loss,
            bool inference, SpanRecorder& spans, std::int64_t op);

/** Bit pattern of a float, as a double for the report. */
double floatBits(float v);

} // namespace perfbench

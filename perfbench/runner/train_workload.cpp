/**
 * @file
 * train_timing and train_functional: Tree-LSTM training through
 * vpps::Handle::fb().
 *
 * The corpus is a few batches long and the timed loop walks it
 * repeatedly, so every batch after the first pass re-generates a
 * script the runner-owned vpps::ScriptCache already holds. The cache
 * is cold when timing starts: the first pass misses, later passes hit.
 * Simulated metrics cover only the first pass (the window), which
 * every run completes, so they repeat exactly for a given seed.
 */
#include <stdexcept>
#include <vector>

#include "rig.hpp"
#include "vpps/script_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct TrainSpec
{
    std::size_t batch;
    int host_threads;
    bool functional;
    std::size_t corpus; //!< items; corpus / batch batches per pass
    std::size_t cache_instructions;

    std::size_t passBatches() const { return corpus / batch; }
};

/** Holds a batch-32 super-graph's activations and gradients. */
constexpr std::size_t kPoolFloats = 64u << 20;

/** Timing-only: host time is graph build, script generation,
 *  checksum, decode and interpreter bookkeeping. Four distinct
 *  batches of ~3M instructions fit the 16M-instruction cache. */
const TrainSpec kTiming{32, 1, false, 128, 16u << 20};

/** Functional: host time is the tensor kernels and the parallel
 *  phase scheduler; checked bitwise against a 1-thread reference. */
const TrainSpec kFunctional{8, 4, true, 64,
                            vpps::ScriptCache::kDefaultMaxInstructions};

/** Per-batch observations of one training loop. */
struct TrainTrace
{
    std::vector<double> op_ms;
    std::vector<double> kernel_us;
    std::vector<double> step_sim_us;
    std::vector<double> instructions;
    std::vector<double> loss_bits;
    std::vector<double> nodes;
    double timed_s = 0.0;
    std::uint64_t param_digest_at_ref = 0;
    vpps::VppsStats window_stats;
};

/** Declared so destruction runs replica, cache, corpus: the replica
 *  borrows the other two. Reassign only after release(). */
struct TrainRig
{
    std::unique_ptr<Corpus> corpus;
    std::unique_ptr<vpps::ScriptCache> cache;
    std::unique_ptr<Replica> replica;

    void
    release()
    {
        replica.reset();
        cache.reset();
        corpus.reset();
    }
};

TrainRig
buildRig(const TrainSpec& spec, const Seeds& seeds, int host_threads,
         SpanRecorder& spans, std::int64_t setup)
{
    TrainRig rig;
    rig.corpus =
        std::make_unique<Corpus>(seeds.corpus, spec.corpus, spans, setup);
    rig.cache =
        std::make_unique<vpps::ScriptCache>(spec.cache_instructions);
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.host_threads = host_threads;
    opts.script_cache = rig.cache.get();
    rig.replica = std::make_unique<Replica>(
        *rig.corpus, seeds.params, kPoolFloats, spec.functional,
        opts, spans, setup);
    return rig;
}

std::size_t
startOf(const TrainSpec& spec, std::size_t batch_index)
{
    return (batch_index * spec.batch) % spec.corpus;
}

/**
 * The untraced fb() loop: at least @p min_ops batches, then until
 * @p seconds of host time have passed (or exactly @p fixed_ops when
 * nonzero). With @p ref_digest_at > 0 the parameters are digested
 * after that many batches, outside the timed interval.
 */
TrainTrace
trainLoop(const TrainSpec& spec, TrainRig& rig, std::size_t min_ops,
          double seconds, std::size_t fixed_ops,
          std::size_t ref_digest_at)
{
    Replica& r = *rig.replica;
    vpps::Handle& h = r.handle();
    TrainTrace t;
    h.resetStats();
    double excluded_s = 0.0;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool done =
            fixed_ops > 0
                ? i >= fixed_ops
                : i >= min_ops &&
                      secondsSince(start) - excluded_s >= seconds;
        if (done)
            break;
        const auto op_start = Clock::now();
        graph::ComputationGraph cg;
        graph::Expr loss = buildBatch(r.model(), *rig.corpus, cg,
                                      startOf(spec, i), spec.batch);
        const vpps::VppsStats before = h.stats();
        const float stale = h.fb(r.model().model(), cg, loss);
        t.op_ms.push_back(msSince(op_start));
        const vpps::VppsStats& after = h.stats();
        t.kernel_us.push_back(after.kernel_us - before.kernel_us);
        t.step_sim_us.push_back(after.cpuUs() + after.gpuUs() -
                                before.cpuUs() - before.gpuUs());
        t.instructions.push_back(
            double(after.instructions - before.instructions));
        t.nodes.push_back(double(cg.size()));
        if (i > 0) // fb() returns the previous batch's loss
            t.loss_bits.push_back(floatBits(stale));
        if (i + 1 == spec.passBatches())
            t.window_stats = after;
        if (i + 1 == ref_digest_at) {
            const auto d0 = Clock::now();
            t.param_digest_at_ref = r.paramDigest();
            excluded_s += secondsSince(d0);
        }
    }
    t.loss_bits.push_back(floatBits(h.sync_get_latest_loss()));
    t.timed_s = secondsSince(start) - excluded_s;
    return t;
}

/** Replay @p ops batches through replayBatch() with spans. */
void
tracedReplay(const TrainSpec& spec, TrainRig& rig, std::size_t ops,
             SpanRecorder& spans, Report& report)
{
    Replica& r = *rig.replica;
    vpps::ScriptExecutor exec(r.device(), spec.host_threads,
                              rig.cache.get());
    std::vector<double> loss_bits, kernel_us, instructions, script_bytes;
    // fb() reports kernel time through the handle's running sum, so
    // the untraced per-batch figure is a difference of that sum; the
    // same accumulation here makes the two bitwise comparable.
    double kernel_sum = 0.0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        ScopedSpan op(spans, "train.batch", std::int64_t(i));
        graph::ComputationGraph cg;
        graph::Expr loss;
        {
            ScopedSpan s(spans, "graph.build", std::int64_t(i));
            loss = buildBatch(r.model(), *rig.corpus, cg,
                              startOf(spec, i), spec.batch);
        }
        ScopedSpan fb(spans, "vpps.fb", std::int64_t(i));
        auto rr = replayBatch(r, exec, cg, loss, false, spans,
                              std::int64_t(i));
        if (!rr.ok())
            throw std::runtime_error("replayed batch failed: " +
                                     rr.status().toString());
        loss_bits.push_back(floatBits(rr.value().loss));
        const double before = kernel_sum;
        kernel_sum += rr.value().kernel_us;
        kernel_us.push_back(kernel_sum - before);
        instructions.push_back(double(rr.value().instructions));
        script_bytes.push_back(rr.value().script_bytes);
    }
    report.num("traced_timed_s", secondsSince(start));
    report.num("traced_items", double(ops * spec.batch));
    report.nums("replay_loss_bits", loss_bits);
    report.nums("replay_kernel_us", kernel_us);
    report.nums("replay_instructions", instructions);
    report.nums("replay_script_bytes", script_bytes);
}

} // namespace

void
runTrain(const RunArgs& args, Report& report)
{
    const bool functional = args.workload == "train_functional";
    const TrainSpec& spec = functional ? kFunctional : kTiming;
    const Seeds seeds(args.seed);
    SpanRecorder spans(args.traced);

    std::vector<double> setup_s;
    TrainRig rig;
    for (int s = 0; s < kSetups; ++s) {
        rig.release();
        const auto start = Clock::now();
        rig = buildRig(spec, seeds, spec.host_threads, spans, s);
        setup_s.push_back(secondsSince(start));
    }

    // At least three passes, so the median pass is a warm one. The
    // functional workload digests its parameters after the first pass
    // for the 1-thread reference below.
    const std::size_t per_pass = spec.passBatches();
    const TrainTrace t =
        trainLoop(spec, rig, 3 * per_pass, args.seconds, 0,
                  spec.functional ? per_pass : 0);
    const auto cache = rig.cache->stats();

    report.num("host_threads", double(spec.host_threads));
    report.num("window", double(per_pass));
    report.num("items_per_op", double(spec.batch));
    report.num("interval_ops", double(per_pass));
    report.nums("setup_s", setup_s);
    report.num("timed_s", t.timed_s);
    report.nums("op_ms", t.op_ms);
    report.nums("kernel_us", t.kernel_us);
    report.nums("step_sim_us", t.step_sim_us);
    report.nums("instructions", t.instructions);
    report.nums("loss_bits", t.loss_bits);
    report.nums("nodes", t.nodes);
    report.num("window_wall_us", t.window_stats.wall_us);
    report.num("window_graph_us", t.window_stats.graph_us);
    report.num("window_sched_us", t.window_stats.fwd_sched_us +
                                      t.window_stats.bwd_sched_us);
    report.num("window_transfer_us", t.window_stats.transfer_us);
    report.num("window_kernel_us", t.window_stats.kernel_us);
    report.num("cache_hits", double(cache.hits));
    report.num("cache_lookups", double(cache.hits + cache.misses));
    report.str("cache_at_start", "cold");

    if (spec.functional) {
        // The bitwise-determinism contract: the first pass at one host
        // thread must give the same loss bits and parameters.
        report.str("param_digest_at_ref", hex64(t.param_digest_at_ref));
        rig.release();
        SpanRecorder off(false);
        TrainRig ref = buildRig(spec, seeds, 1, off, -1);
        const TrainTrace rt =
            trainLoop(spec, ref, 0, 0.0, per_pass, 0);
        report.nums("ref_loss_bits", rt.loss_bits);
        report.str("ref_param_digest",
                   hex64(ref.replica->paramDigest()));
    }
    report.num("peak_rss_mb", peakRssMb());

    if (args.traced) {
        rig.release();
        SpanRecorder off(false);
        TrainRig fresh = buildRig(spec, seeds, spec.host_threads, off, -1);
        tracedReplay(spec, fresh, t.op_ms.size(), spans, report);
        probeTensorKernels(spans, report);
        report.spans("spans", spans.spans());
    }
}

} // namespace perfbench

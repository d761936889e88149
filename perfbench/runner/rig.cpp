#include "rig.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/wire.hpp"
#include "vpps/script_gen.hpp"

namespace perfbench {

namespace {

/** splitmix64 finalizer: decorrelates the per-stream seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

Seeds::Seeds(std::uint64_t seed)
    : corpus(mix(seed * 3 + 1)), params(mix(seed * 3 + 2)),
      arrivals(mix(seed * 3 + 3))
{
}

Corpus::Corpus(std::uint64_t seed, std::size_t items, SpanRecorder& spans,
               std::int64_t setup)
{
    // The treebank's length model: geometric from kMinLen with mean
    // kMeanLen, clamped at kMaxLen (data/treebank.cpp).
    constexpr std::size_t kMinLen = 4, kMaxLen = 36, kCandidates = 16;
    constexpr double kMeanLen = 19.0;
    ScopedSpan s(spans, "data.corpus", setup);
    common::Rng rng(seed);
    vocab = std::make_unique<data::Vocab>(10000);
    bank = std::make_unique<data::Treebank>(
        *vocab, kCandidates * items, rng, kMeanLen, kMinLen, kMaxLen);

    std::vector<std::vector<std::size_t>> by_len(kMaxLen + 1);
    for (std::size_t i = bank->size(); i-- > 0;)
        by_len[bank->sentence(i).length()].push_back(i);

    const double q = 1.0 - 1.0 / (kMeanLen - double(kMinLen));
    std::vector<std::size_t> lengths;
    for (std::size_t i = 0; i < items; ++i) {
        const double u = (double(i) + 0.5) / double(items);
        const double k = std::ceil(std::log(1.0 - u) / std::log(q)) - 1.0;
        lengths.push_back(kMinLen +
                          std::size_t(std::clamp(k, 0.0,
                                                 double(kMaxLen - kMinLen))));
    }
    common::Rng order(0x9E3779B97F4A7C15ull); // same order for every seed
    order.shuffle(lengths);

    for (const std::size_t want : lengths) {
        // Nearest length with an unused candidate, shorter first.
        for (std::size_t d = 0;; ++d) {
            auto& lo = by_len[want >= kMinLen + d ? want - d : kMinLen];
            auto& hi = by_len[std::min(want + d, kMaxLen)];
            auto& pick = !lo.empty() ? lo : hi;
            if (!pick.empty()) {
                index.push_back(pick.back());
                pick.pop_back();
                break;
            }
        }
    }
}

graph::Expr
buildBatch(models::BenchmarkModel& bm, const Corpus& corpus,
           graph::ComputationGraph& cg, std::size_t start,
           std::size_t batch)
{
    std::vector<graph::Expr> losses;
    losses.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i)
        losses.push_back(bm.buildLoss(cg, corpus.sentence(start + i)));
    return graph::sumLosses(std::move(losses));
}

Replica::Replica(const Corpus& corpus, std::uint64_t param_seed,
                 std::size_t pool_floats, bool functional,
                 const vpps::VppsOptions& opts, SpanRecorder& spans,
                 std::int64_t setup)
{
    {
        ScopedSpan s(spans, "gpusim.device_init", setup);
        device_ = std::make_unique<gpusim::Device>(gpusim::DeviceSpec{},
                                                   pool_floats);
        device_->setFunctional(functional);
    }
    {
        ScopedSpan s(spans, "models.init", setup);
        common::Rng prng(param_seed);
        model_ = std::make_unique<models::TreeLstmModel>(
            *corpus.bank, *corpus.vocab, kWidth, kWidth, *device_, prng);
    }
    ScopedSpan s(spans, "vpps.jit", setup);
    handle_ =
        std::make_unique<vpps::Handle>(model_->model(), *device_, opts);
}

std::uint64_t
Replica::paramDigest() const
{
    const graph::Model& m = model_->model();
    const auto& mem = device_->memory();
    std::vector<std::uint8_t> bytes;
    for (graph::ParamId id = 0; id < m.numParams(); ++id) {
        const auto& p = m.param(id);
        const auto* v =
            reinterpret_cast<const std::uint8_t*>(mem.data(p.value));
        bytes.insert(bytes.end(), v, v + p.shape.size() * sizeof(float));
    }
    return common::fnv1a64(bytes);
}

void
Replica::snapshotParams()
{
    const graph::Model& m = model_->model();
    const auto& mem = device_->memory();
    snapshot_.clear();
    for (graph::ParamId id = 0; id < m.numParams(); ++id) {
        const auto& p = m.param(id);
        const float* v = mem.data(p.value);
        snapshot_.insert(snapshot_.end(), v, v + p.shape.size());
    }
}

common::Result<ReplayResult>
replayBatch(Replica& rig, vpps::ScriptExecutor& exec,
            graph::ComputationGraph& cg, graph::Expr loss,
            bool inference, SpanRecorder& spans, std::int64_t op)
{
    gpusim::Device& dev = rig.device();
    auto& mem = dev.memory();
    graph::Model& model = rig.model().model();
    const vpps::CompiledKernel& k = rig.handle().kernel();
    const gpusim::HostSpec host; // the handle's host model
    const float lr = model.learning_rate;
    const float wd = model.weight_decay;
    if (inference) {
        model.learning_rate = 0.0f;
        model.weight_decay = 0.0f;
    }

    ReplayResult out;
    int s = spans.begin("gpusim.mark", op);
    const auto mark = mem.mark();
    spans.end(s);

    s = spans.begin("vpps.generate", op);
    const vpps::ScriptGenerator generator(k, host);
    vpps::GeneratedBatch gb = generator.generate(dev, model, cg, loss);
    spans.end(s);
    out.script_bytes = gb.script.bytes();

    s = spans.begin("vpps.checksum", op);
    const std::uint64_t sum = gb.script.checksum();
    spans.end(s);
    (void)sum;
    dev.addStore(gpusim::MemSpace::Script, gb.script.bytes());

    // fb() copies every parameter to host memory before the kernel
    // when the NaN guard is on for a functional device, so that a
    // poisoned batch can roll back; the replay makes the same copy.
    if (rig.handle().options().nan_guard && dev.functional()) {
        s = spans.begin("vpps.param_snapshot", op);
        rig.snapshotParams();
        spans.end(s);
    }

    s = spans.begin("gpusim.memset", op);
    gpusim::KernelCost memset_cost;
    memset_cost.dram_store_bytes = gb.stats.zeroed_bytes;
    memset_cost.parallel_threads = gb.stats.zeroed_bytes / 4.0;
    dev.addStore(gpusim::MemSpace::ActGrads, gb.stats.zeroed_bytes);
    dev.launchKernel(memset_cost);
    spans.end(s);

    s = spans.begin("vpps.interpret", op);
    auto run = exec.run(k, gb, model, cg);
    spans.end(s);

    s = spans.begin("gpusim.reset", op);
    mem.resetTo(mark);
    spans.end(s);

    model.learning_rate = lr;
    model.weight_decay = wd;
    if (!run.ok())
        return run.takeStatus();
    out.loss = run.value().loss;
    out.kernel_us = run.value().kernel_us;
    out.instructions = run.value().instructions;
    return out;
}

double
floatBits(float v)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return static_cast<double>(bits);
}

} // namespace perfbench

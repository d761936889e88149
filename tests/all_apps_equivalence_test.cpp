/**
 * @file
 * The core guarantee, swept across every application: training any
 * of the seven dynamic nets through the VPPS persistent kernel
 * produces the same losses as the four baselines -- the first loss
 * bit for bit, the next within a measured bound -- and this holds on
 * non-default device geometries (fewer SMs, smaller register files),
 * where the distribution plan and script differ entirely.
 * One timing-only batch per app also pins its simulated time, two
 * functional batches pin its losses and trained parameters, and one
 * batch run three times pins what a script-cache hit computes and
 * charges. Inference is batch invariant: four requests served
 * together compute each request's loss exactly as served alone.
 * Every app also pins two batches through each baseline.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ios>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/agenda_batch_executor.hpp"
#include "exec/depth_batch_executor.hpp"
#include "exec/fold_executor.hpp"
#include "exec/naive_executor.hpp"
#include "models/bi_tagger.hpp"
#include "models/bilstm_char_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/td_rnn.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"
#include "vpps/script_gen.hpp"

namespace {

struct Factory
{
    gpusim::Device device;
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    data::NerCorpus corpus{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};

    explicit Factory(const gpusim::DeviceSpec& spec)
        : device(spec, 48u << 20)
    {
    }

    std::unique_ptr<models::BenchmarkModel>
    make(const std::string& app)
    {
        if (app == "Tree-LSTM")
            return std::make_unique<models::TreeLstmModel>(
                bank, vocab, 16, 32, device, param_rng);
        if (app == "BiLSTM")
            return std::make_unique<models::BiLstmTagger>(
                corpus, vocab, 16, 24, 16, device, param_rng);
        if (app == "BiLSTMwChar")
            return std::make_unique<models::BiLstmCharTagger>(
                corpus, vocab, 16, 24, 16, 8, device, param_rng);
        if (app == "BiGRU")
            return std::make_unique<models::BiGruTagger>(
                corpus, vocab, 16, 24, 16, device, param_rng);
        if (app == "TD-RNN")
            return std::make_unique<models::TdRnnModel>(
                bank, vocab, 32, device, param_rng);
        if (app == "TD-LSTM")
            return std::make_unique<models::TdLstmModel>(
                bank, vocab, 32, device, param_rng);
        return std::make_unique<models::RvnnModel>(
            bank, vocab, 32, device, param_rng);
    }
};

/** The four baselines, in the order the paper's figures list them. */
const char* const kBaselines[] = {"Naive", "DyNet-DB", "DyNet-AB",
                                  "TF-Fold"};

std::unique_ptr<exec::Executor>
makeBaseline(const std::string& system, gpusim::Device& device)
{
    const gpusim::HostSpec host;
    if (system == "Naive")
        return std::make_unique<exec::NaiveExecutor>(device, host);
    if (system == "DyNet-DB")
        return std::make_unique<exec::DepthBatchExecutor>(device, host);
    if (system == "DyNet-AB")
        return std::make_unique<exec::AgendaBatchExecutor>(device, host);
    return std::make_unique<exec::FoldExecutor>(device, host);
}

std::uint32_t
bitsOf(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** FNV-1a of every parameter's bytes, in parameter order. */
std::uint64_t
paramsDigest(gpusim::Device& device, const graph::Model& model)
{
    std::vector<std::uint8_t> bytes;
    for (graph::ParamId id = 0; id < model.numParams(); ++id) {
        const auto& p = model.param(id);
        const auto* data = reinterpret_cast<const std::uint8_t*>(
            device.memory().data(p.value));
        bytes.insert(bytes.end(), data,
                     data + p.shape.size() * sizeof(float));
    }
    return common::fnv1a64(bytes);
}

/** One app trained through one baseline on its own device. */
struct BaselineRun
{
    const char* system;
    Factory f;
    std::unique_ptr<models::BenchmarkModel> m;
    std::unique_ptr<exec::Executor> executor;

    BaselineRun(const std::string& app, const char* sys,
                const gpusim::DeviceSpec& spec)
        : system(sys), f(spec), m(f.make(app)),
          executor(makeBaseline(sys, f.device))
    {
    }

    /** Train on the @p batch items starting at @p first. */
    float
    train(std::size_t first, std::size_t batch)
    {
        graph::ComputationGraph cg;
        return executor->trainBatch(
            m->model(), cg, train::buildSuperGraph(*m, cg, first, batch));
    }
};

// Relative gap between a baseline's step-1 loss and VPPS's. The
// largest measured over the seven apps, the four baselines and both
// device specs was 2.0e-7 (RvNN on Naive); the bound is ten times
// that.
constexpr double kStep1LossGap = 2e-6;

void
expectVppsMatchesBaselines(const std::string& app,
                           const gpusim::DeviceSpec& spec)
{
    Factory vf(spec);
    auto vm = vf.make(app);
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(vm->model(), vf.device, opts);
    std::vector<std::unique_ptr<BaselineRun>> runs;
    for (const char* system : kBaselines)
        runs.push_back(std::make_unique<BaselineRun>(app, system, spec));

    for (int step = 0; step < 2; ++step) {
        const auto first = static_cast<std::size_t>(step) * 2;
        graph::ComputationGraph cg_v;
        const float lv = handle.fb(
            vm->model(), cg_v,
            train::buildSuperGraph(*vm, cg_v, first, 2));
        ASSERT_TRUE(std::isfinite(lv));
        for (auto& run : runs) {
            SCOPED_TRACE(testing::Message() << app << " on "
                                            << run->system << " step "
                                            << step);
            const float l = run->train(first, 2);
            // Every system starts from the same parameters, so the
            // first forward pass computes the same loss bit for bit.
            if (step == 0) {
                EXPECT_EQ(bitsOf(l), bitsOf(lv))
                    << std::hex << std::showbase << bitsOf(l) << " vs "
                    << bitsOf(lv);
                continue;
            }
            const double gap =
                std::abs(static_cast<double>(l) - lv) / std::abs(lv);
            EXPECT_LE(gap, kStep1LossGap);
        }
    }
}

class AllAppsEquivalenceTest
    : public testing::TestWithParam<const char*>
{
};

std::string
appIdent(const testing::TestParamInfo<const char*>& info)
{
    std::string n = info.param;
    for (auto& c : n)
        if (c == '-')
            c = '_';
    return n;
}

TEST_P(AllAppsEquivalenceTest, OnTitanV)
{
    expectVppsMatchesBaselines(GetParam(), gpusim::DeviceSpec{});
}

TEST_P(AllAppsEquivalenceTest, OnSmallerGpu)
{
    // A hypothetical 20-SM part with 128 KB register files: the
    // distribution spreads rows over far fewer VPPs and the capacity
    // decisions differ, but the math must not.
    gpusim::DeviceSpec small;
    small.num_sms = 20;
    small.regfile_bytes_per_sm = 128 * 1024;
    expectVppsMatchesBaselines(GetParam(), small);
}

/** Simulated output and script of one timing-only batch of an app. */
struct TimingPin
{
    const char* app;
    double kernel_us;
    double extra_kernel_us;
    std::uint64_t instructions;
    std::uint64_t script_checksum;
    double script_bytes;
};

const TimingPin kTimingPins[] = {
    {"Tree-LSTM", 0x1.7e14151f5ccd6p+11, 0x1.b9b9b9b9b9cp+2, 15550,
     0x904fba355373fecfull, 216228},
    {"BiLSTM", 0x1.4a1d064dfc13bp+12, 0x1.b9b9b9b9b9cp+2, 20660,
     0x46ef43a8dcf8b4e8ull, 290700},
    {"BiLSTMwChar", 0x1.e8bbd4a16e458p+12, 0x1.b9b9b9b9b9cp+2, 23509,
     0xdd7269be659e7d16ull, 347904},
    {"BiGRU", 0x1.70ce63448c3dap+12, 0x1.b9b9b9b9b9cp+2, 17156,
     0xcbf39d94197612c0ull, 246068},
    {"TD-RNN", 0x1.671473400cd69p+11, 0x1.b9b9b9b9b9cp+2, 4678,
     0x8c8fc51362df5ad7ull, 68472},
    {"TD-LSTM", 0x1.3e07908648dbap+12, 0x1.bff82b5e91cp+2, 39976,
     0x7362ccfd0e0129b6ull, 535840},
    {"RvNN", 0x1.c741b9153e329p+10, 0x1.b9b9b9b9b9cp+2, 2656,
     0xd5bef53cfd86e0d1ull, 38440},
};

TEST_P(AllAppsEquivalenceTest, TimingOnlyBatchIsPinned)
{
    // Simulated time must not move under host-side refactors: one
    // four-input batch per app pins the interpreter's cost model
    // bit for bit across every opcode the apps emit.
    const TimingPin* pin = nullptr;
    for (const TimingPin& p : kTimingPins)
        if (std::string(p.app) == GetParam())
            pin = &p;
    ASSERT_NE(pin, nullptr);

    Factory f(gpusim::DeviceSpec{});
    f.device.setFunctional(false);
    auto m = f.make(GetParam());
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(m->model(), f.device, opts);
    graph::ComputationGraph cg;
    const graph::Expr loss = train::buildSuperGraph(*m, cg, 0, 4);
    handle.fb(m->model(), cg, loss);

    const vpps::VppsStats& s = handle.stats();
    EXPECT_EQ(s.kernel_us, pin->kernel_us)
        << std::hexfloat << s.kernel_us;
    EXPECT_EQ(s.extra_kernel_us, pin->extra_kernel_us)
        << std::hexfloat << s.extra_kernel_us;
    EXPECT_EQ(s.instructions, pin->instructions);

    // The script that batch sent, generated again at the same pool
    // mark: every word it transfers is pinned through its digest.
    auto& mem = f.device.memory();
    const auto mark = mem.mark();
    const vpps::GeneratedBatch gb =
        vpps::ScriptGenerator(handle.kernel(), gpusim::HostSpec{})
            .generate(f.device, m->model(), cg, loss);
    mem.resetTo(mark);
    EXPECT_EQ(gb.script.checksum(), pin->script_checksum)
        << std::hex << std::showbase << gb.script.checksum();
    EXPECT_EQ(gb.script.bytes(), pin->script_bytes)
        << std::fixed << gb.script.bytes();
}

/** Float results of two functional batches of an app. */
struct FunctionalPin
{
    const char* app;
    bool cache_gradients;
    std::uint32_t loss_bits[2];
    std::uint64_t params_digest; //!< FNV-1a of every parameter's bytes
};

const FunctionalPin kFunctionalPins[] = {
    {"Tree-LSTM", true, {0x40887154, 0x4021856c}, 0xc817090990f6ce6cull},
    {"Tree-LSTM", false, {0x40887154, 0x4021856c}, 0x70e189078f82c0b2ull},
    {"BiLSTM", true, {0x4251d908, 0x41ebeb7f}, 0xa8e758e3d91c5cd0ull},
    {"BiLSTMwChar", true, {0x420772e7, 0x421ce11c}, 0xdc32e9fc6422b082ull},
    {"BiGRU", true, {0x4229a908, 0x4200d658}, 0xa334026087ed32c3ull},
    {"TD-RNN", true, {0x403edf1a, 0x40dc85ba}, 0xb93637ebc3e0e5eeull},
    {"TD-LSTM", true, {0x4082d074, 0x407c49e9}, 0x604b612ff257b27full},
    {"RvNN", true, {0x40168f68, 0x409793f3}, 0x44a0ea92ba7e5747ull},
};

TEST_P(AllAppsEquivalenceTest, FunctionalBatchIsPinned)
{
    // The float results must not move under host-side refactors
    // either: losses and trained parameters of two functional batches
    // per app are pinned bit for bit at 1 and at 8 host threads, so a
    // reduction-order change that every thread count shares still
    // fails here. Tree-LSTM also runs its GEMM-fallback kernel.
    int checked = 0;
    for (const FunctionalPin& pin : kFunctionalPins) {
        if (std::string(pin.app) != GetParam())
            continue;
        for (int threads : {1, 8}) {
            SCOPED_TRACE(testing::Message()
                         << "cache_gradients " << pin.cache_gradients
                         << ", " << threads << " host threads");
            Factory f(gpusim::DeviceSpec{});
            auto m = f.make(GetParam());
            vpps::VppsOptions opts;
            opts.rpw = 2;
            opts.async = false;
            opts.cache_gradients = pin.cache_gradients;
            opts.host_threads = threads;
            vpps::Handle handle(m->model(), f.device, opts);
            ASSERT_EQ(handle.kernel().plan.gradientsCached(),
                      pin.cache_gradients);
            for (int step = 0; step < 2; ++step) {
                graph::ComputationGraph cg;
                const float loss = handle.fb(
                    m->model(), cg,
                    train::buildSuperGraph(
                        *m, cg, static_cast<std::size_t>(step) * 2, 2));
                const std::uint32_t bits = bitsOf(loss);
                EXPECT_EQ(bits, pin.loss_bits[step])
                    << "step " << step << std::hex << std::showbase
                    << ": " << bits;
            }
            const std::uint64_t digest = paramsDigest(f.device, m->model());
            EXPECT_EQ(digest, pin.params_digest)
                << std::hex << std::showbase << digest;
        }
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

/** One batch run three times through one handle: the first run
 *  misses the script cache, the next two hit it. */
struct RepeatPin
{
    const char* app;
    bool cache_gradients;
    std::uint32_t loss_bits[3];
    std::uint64_t params_digest; //!< FNV-1a of every parameter's bytes
    double kernel_us;            //!< of every run
    double step_us[3];           //!< simulated host + device time per run
    std::uint64_t instructions;  //!< of every run
};

const RepeatPin kRepeatPins[] = {
    {"Tree-LSTM", true, {0x40887154, 0x40570de3, 0x4024d65c},
     0xa6e5e41f34643f5dull, 0x1.0a7e6074efd09p+11,
     {0x1.3bbbfb39988bfp+11, 0x1.3bbbfb39988bfp+11,
      0x1.3bbbfb39988bep+11},
     6020},
    {"Tree-LSTM", false, {0x40887154, 0x40570de3, 0x4024d65c},
     0xbf3cb1e97908501full, 0x1.0a3e0f5705192p+11,
     {0x1.566445987247p+11, 0x1.566445987247ap+11,
      0x1.566445987247bp+11},
     4478},
    {"BiLSTM", true, {0x4251d908, 0x40b81d8a, 0x40a4a9b9},
     0x8ae5217aa322e905ull, 0x1.432272bf8c5abp+12,
     {0x1.6f6a5b8045a18p+12, 0x1.6f6a5b8045a18p+12,
      0x1.6f6a5b8045a16p+12},
     11735},
    {"BiLSTMwChar", true, {0x420772e7, 0x40d13598, 0x40b31fb0},
     0xffaabe0ecbabfd39ull, 0x1.e1f16f4b74717p+12,
     {0x1.0f5330367f1f2p+13, 0x1.0f5330367f1f2p+13,
      0x1.0f5330367f1f1p+13},
     13822},
    {"BiGRU", true, {0x4229a908, 0x408be5d0, 0x407f966e},
     0x77b53d0c2eeaf06full, 0x1.69b17afafafd3p+12,
     {0x1.a0b53c433e994p+12, 0x1.a0b53c433e994p+12,
      0x1.a0b53c433e992p+12},
     9743},
    {"TD-RNN", true, {0x403edf1a, 0x3e564674, 0x3de95a28},
     0x8d0f4b7048d157b1ull, 0x1.bb0f2682aba0cp+10,
     {0x1.dc28d74c97febp+10, 0x1.dc28d74c97febp+10,
      0x1.dc28d74c97febp+10},
     1366},
    {"TD-LSTM", true, {0x4082d074, 0x4006a8b2, 0x3f8c4896},
     0x9aaa7ce50291b4c1ull, 0x1.770ce6194c7f9p+11,
     {0x1.ae1d26919f962p+11, 0x1.ae1d26919f962p+11,
      0x1.ae1d26919f961p+11},
     11115},
    {"RvNN", true, {0x40168f68, 0x3ec02066, 0x3e60a6d2},
     0x8c0567ca8660efe9ull, 0x1.3de7a41f0047cp+10,
     {0x1.578a04aa5e083p+10, 0x1.578a04aa5e083p+10,
      0x1.578a04aa5e083p+10},
     1049},
};

TEST_P(AllAppsEquivalenceTest, RepeatedBatchIsPinned)
{
    // A repeated batch runs the script cache's copy of its program.
    // It must compute and charge exactly what its first run did: the
    // same simulated time and instructions on every run, and the
    // losses and parameters of three fresh runs, functional at 1 and
    // 8 host threads and timing-only.
    struct Mode
    {
        bool functional;
        int threads;
    };
    int checked = 0;
    for (const RepeatPin& pin : kRepeatPins) {
        if (std::string(pin.app) != GetParam())
            continue;
        for (const Mode mode : {Mode{true, 1}, Mode{true, 8},
                                Mode{false, 1}}) {
            SCOPED_TRACE(testing::Message()
                         << "cache_gradients " << pin.cache_gradients
                         << ", functional " << mode.functional << ", "
                         << mode.threads << " host threads");
            Factory f(gpusim::DeviceSpec{});
            f.device.setFunctional(mode.functional);
            auto m = f.make(GetParam());
            vpps::VppsOptions opts;
            opts.rpw = 2;
            opts.async = false;
            opts.cache_gradients = pin.cache_gradients;
            opts.host_threads = mode.threads;
            vpps::Handle handle(m->model(), f.device, opts);
            ASSERT_EQ(handle.kernel().plan.gradientsCached(),
                      pin.cache_gradients);
            for (int run = 0; run < 3; ++run) {
                handle.resetStats();
                graph::ComputationGraph cg;
                const float loss = handle.fb(
                    m->model(), cg,
                    train::buildSuperGraph(*m, cg, 0, 2));
                const vpps::VppsStats& s = handle.stats();
                EXPECT_EQ(s.kernel_us, pin.kernel_us)
                    << "run " << run << ": " << std::hexfloat
                    << s.kernel_us;
                EXPECT_EQ(s.cpuUs() + s.gpuUs(), pin.step_us[run])
                    << "run " << run << ": " << std::hexfloat
                    << s.cpuUs() + s.gpuUs();
                EXPECT_EQ(s.instructions, pin.instructions)
                    << "run " << run;
                if (!mode.functional)
                    continue;
                const std::uint32_t bits = bitsOf(loss);
                EXPECT_EQ(bits, pin.loss_bits[run])
                    << "run " << run << std::hex << std::showbase
                    << ": " << bits;
            }
            if (!mode.functional)
                continue;
            const std::uint64_t digest = paramsDigest(f.device, m->model());
            EXPECT_EQ(digest, pin.params_digest)
                << std::hex << std::showbase << digest;
        }
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST_P(AllAppsEquivalenceTest, BatchedInferenceMatchesSingleItemBitwise)
{
    // Batch invariance, the property cross-request batching in the
    // serving fleet rests on: forward VPPS has no cross-VPP reduction
    // and sums each MatVec row in a fixed order, so a request's loss
    // computed inside a four-request super-graph must equal its loss
    // served alone, bit for bit, at any host thread count.
    constexpr std::size_t kRequests = 4;
    for (int threads : {1, 8}) {
        SCOPED_TRACE(testing::Message() << threads << " host threads");
        Factory f(gpusim::DeviceSpec{});
        auto m = f.make(GetParam());
        vpps::VppsOptions opts;
        opts.rpw = 2;
        opts.async = false;
        opts.host_threads = threads;
        vpps::Handle handle(m->model(), f.device, opts);

        std::uint32_t single[kRequests] = {};
        for (std::size_t i = 0; i < kRequests; ++i) {
            graph::ComputationGraph cg;
            const graph::Expr loss = m->buildLoss(cg, i);
            auto r = handle.inferTry(m->model(), cg, loss);
            ASSERT_TRUE(r.ok()) << r.status().toString();
            const float v = r.value();
            std::memcpy(&single[i], &v, sizeof(float));
        }

        graph::ComputationGraph cg;
        std::vector<graph::Expr> losses;
        for (std::size_t i = 0; i < kRequests; ++i)
            losses.push_back(m->buildLoss(cg, i));
        auto r = handle.inferTry(m->model(), cg,
                                 graph::sumLosses(losses));
        ASSERT_TRUE(r.ok()) << r.status().toString();
        // The batch's workspace is released but not cleared, so each
        // request's loss node still holds what the batch computed.
        for (std::size_t i = 0; i < kRequests; ++i) {
            const float v =
                f.device.memory().data(cg.node(losses[i].id).fwd)[0];
            std::uint32_t bits;
            std::memcpy(&bits, &v, sizeof(float));
            EXPECT_EQ(bits, single[i])
                << "request " << i << std::hex << std::showbase
                << ": batched " << bits << ", alone " << single[i];
        }
    }
}

/** Simulated cost, losses and trained parameters of two functional
 *  batches of an app through a baseline. */
struct BaselinePin
{
    const char* app;
    const char* system;
    double cpu_us;
    double gpu_us;
    std::uint64_t launches;
    std::uint32_t loss_bits[2];
    std::uint64_t params_digest; //!< FNV-1a of every parameter's bytes
};

const BaselinePin kBaselinePins[] = {
    {"Tree-LSTM", "Naive", 0x1.cb26666666666p+13, 0x1.816b97989ecf3p+15,
     4453, {0x40d1eda2, 0x40f23254}, 0xdcba3b51d01fe464ull},
    {"Tree-LSTM", "DyNet-DB", 0x1.2d52666666666p+12, 0x1.5ec5c380f8821p+12,
     559, {0x40d1eda2, 0x40f23254}, 0xe4d1b16f5eb6b83bull},
    {"Tree-LSTM", "DyNet-AB", 0x1.6a9c51eb851ecp+12, 0x1.852ae623d0743p+12,
     692, {0x40d1eda2, 0x40f23254}, 0x3684e44eb8a3d170ull},
    {"Tree-LSTM", "TF-Fold", 0x1.2709333333333p+13, 0x1.0e48c7a662243p+13,
     973, {0x40d1eda2, 0x40f23254}, 0xe4d1b16f5eb6b83bull},
    {"BiLSTM", "Naive", 0x1.0904512cdeac6p+14, 0x1.7a19a69358ebfp+15,
     5118, {0x42ad31b0, 0x421f95c0}, 0xf5fe59ab231ee99eull},
    {"BiLSTM", "DyNet-DB", 0x1.8622de4d144b4p+12, 0x1.838b0e8e9fb46p+12,
     724, {0x42ad31b0, 0x421f95bf}, 0x40e25ffe35ea548aull},
    {"BiLSTM", "DyNet-AB", 0x1.b397fd056636cp+12, 0x1.a21c19c8651c6p+12,
     794, {0x42ad31b0, 0x421f95c0}, 0xe48d49e510cb8544ull},
    {"BiLSTM", "TF-Fold", 0x1.99716f268a25ap+13, 0x1.542365252db7p+13,
     1362, {0x42ad31b0, 0x421f95bf}, 0x40e25ffe35ea548aull},
    {"BiLSTMwChar", "Naive", 0x1.328a029b46902p+14, 0x1.a8e4be2b9ff8ap+15,
     5923, {0x42796246, 0x42651ece}, 0x5c3920c6d3028dc3ull},
    {"BiLSTMwChar", "DyNet-DB", 0x1.374b3869c0536p+13, 0x1.8451f47481086p+13,
     1409, {0x42796246, 0x42651ece}, 0xf4d382e362d6f4a2ull},
    {"BiLSTMwChar", "DyNet-AB", 0x1.429242a730f74p+13, 0x1.78a9337572762p+13,
     1390, {0x42796246, 0x42651ece}, 0x46a7e5c16f3707adull},
    {"BiLSTMwChar", "TF-Fold", 0x1.67b59c34e029bp+14, 0x1.50d869a9aff84p+14,
     2667, {0x42796246, 0x42651ece}, 0xf4d382e362d6f4a2ull},
    {"BiGRU", "Naive", 0x1.46d4ad857e0b8p+14, 0x1.b01db54cbcfe9p+15,
     6298, {0x42959adf, 0x4213668c}, 0xe931ae132552dc7dull},
    {"BiGRU", "DyNet-DB", 0x1.bd9ab615f82e2p+12, 0x1.89ebb9f788504p+12,
     756, {0x42959adf, 0x4213668c}, 0xf7803af911243ef7ull},
    {"BiGRU", "DyNet-AB", 0x1.f11de9492b616p+12, 0x1.a7f43ca8c52f9p+12,
     826, {0x42959adf, 0x4213668c}, 0xbf7c4c8988eb7746ull},
    {"BiGRU", "TF-Fold", 0x1.bf2d5b0afc172p+13, 0x1.5ebb2241096cap+13,
     1426, {0x42959adf, 0x4213668c}, 0xf7803af911243ef7ull},
    {"TD-RNN", "Naive", 0x1.5283333333334p+12, 0x1.36473404ea4e4p+14,
     1620, {0x40c05fae, 0x4123f9d0}, 0x26c487e6de13d969ull},
    {"TD-RNN", "DyNet-DB", 0x1.1fcb333333334p+11, 0x1.4cba56cd51d05p+11,
     289, {0x40c05fae, 0x4123f9cf}, 0x66d80c5bcdc70ad1ull},
    {"TD-RNN", "DyNet-AB", 0x1.0bd0f5c28f5c2p+11, 0x1.fe85beabb4b1dp+10,
     229, {0x40c05fae, 0x4123f9cf}, 0x66d80c5bcdc70ad1ull},
    {"TD-RNN", "TF-Fold", 0x1.43e599999999ap+12, 0x1.1283518ccf0eap+12,
     529, {0x40c05fae, 0x4123f9cf}, 0x66d80c5bcdc70ad1ull},
    {"TD-LSTM", "Naive", 0x1.4aa592e5bf94cp+14, 0x1.308f211b32642p+16,
     6396, {0x40e40cf6, 0x40ede288}, 0xbb97146e304e6889ull},
    {"TD-LSTM", "DyNet-DB", 0x1.9eefe53097ecap+12, 0x1.826c3c006b079p+12,
     668, {0x40e40cf6, 0x40ede288}, 0x3a4b7c6ac21cf9cdull},
    {"TD-LSTM", "DyNet-AB", 0x1.c47b6a4f503e8p+12, 0x1.83dcac70db781p+12,
     694, {0x40e40cf6, 0x40ede288}, 0x3a4b7c6ac21cf9cdull},
    {"TD-LSTM", "TF-Fold", 0x1.99f7f2984bf65p+13, 0x1.4a947c5e93e1dp+13,
     1268, {0x40e40cf6, 0x40ede288}, 0x3a4b7c6ac21cf9cdull},
    {"RvNN", "Naive", 0x1.828cccccccccdp+11, 0x1.4b5b24c69152cp+13,
     922, {0x40a448f9, 0x40e190d2}, 0x4494b104a3bd21faull},
    {"RvNN", "DyNet-DB", 0x1.458cccccccccdp+10, 0x1.69087d74afa8dp+10,
     163, {0x40a448f9, 0x40e190d2}, 0x2cf8b1d0d8052564ull},
    {"RvNN", "DyNet-AB", 0x1.4ef0a3d70a3d6p+10, 0x1.5c13de2abb097p+10,
     156, {0x40a448f9, 0x40e190d2}, 0x2cf8b1d0d8052564ull},
    {"RvNN", "TF-Fold", 0x1.8146666666666p+11, 0x1.2944ff7b1895ep+11,
     293, {0x40a448f9, 0x40e190d2}, 0x2cf8b1d0d8052564ull},
};

TEST(BaselineBatch, OneBatchPerStrategyIsPinned)
{
    // The baselines' schedules, overhead models and float math must
    // not move under refactors either: two functional four-input
    // batches of every app through each strategy pin its host and
    // device time, its kernel launches, each step's loss bits and the
    // trained parameters. A change to a baseline's backward or update
    // math first shows in the second loss and the digest.
    for (const BaselinePin& pin : kBaselinePins) {
        SCOPED_TRACE(testing::Message() << pin.app << " on "
                                        << pin.system);
        BaselineRun run(pin.app, pin.system, gpusim::DeviceSpec{});
        ASSERT_STREQ(run.executor->name(), pin.system);
        for (int step = 0; step < 2; ++step) {
            const std::uint32_t bits = bitsOf(
                run.train(static_cast<std::size_t>(step) * 4, 4));
            EXPECT_EQ(bits, pin.loss_bits[step])
                << "step " << step << std::hex << std::showbase << ": "
                << bits;
        }
        const exec::ExecStats& s = run.executor->stats();
        EXPECT_EQ(s.cpu_us, pin.cpu_us) << std::hexfloat << s.cpu_us;
        EXPECT_EQ(s.gpu_us, pin.gpu_us) << std::hexfloat << s.gpu_us;
        EXPECT_EQ(s.launches, pin.launches);
        const std::uint64_t digest =
            paramsDigest(run.f.device, run.m->model());
        EXPECT_EQ(digest, pin.params_digest)
            << std::hex << std::showbase << digest;
    }
}

INSTANTIATE_TEST_SUITE_P(SevenApps, AllAppsEquivalenceTest,
                         testing::Values("Tree-LSTM", "BiLSTM",
                                         "BiLSTMwChar", "BiGRU",
                                         "TD-RNN", "TD-LSTM", "RvNN"),
                         appIdent);

} // namespace

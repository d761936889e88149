/**
 * @file
 * The core guarantee, swept across every application: training any
 * of the seven dynamic nets through the VPPS persistent kernel
 * produces the same losses as the per-node baseline -- and this holds
 * on non-default device geometries (fewer SMs, smaller register
 * files), where the distribution plan and script differ entirely.
 * One timing-only batch per app also pins its simulated time, two
 * functional batches pin its losses and trained parameters, and one
 * batch run three times pins what a script-cache hit computes and
 * charges. Inference is batch invariant: four requests served
 * together compute each request's loss exactly as served alone.
 * Tree-LSTM and BiLSTM also pin one batch through each baseline.
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

void
expectVppsMatchesBaseline(const std::string& app,
                          const gpusim::DeviceSpec& spec)
{
    Factory vf(spec), nf(spec);
    auto vm = vf.make(app);
    auto nm = nf.make(app);

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(vm->model(), vf.device, opts);
    exec::NaiveExecutor naive(nf.device, gpusim::HostSpec{});

    for (int step = 0; step < 2; ++step) {
        graph::ComputationGraph cg_v;
        const float lv = handle.fb(
            vm->model(), cg_v,
            train::buildSuperGraph(
                *vm, cg_v, static_cast<std::size_t>(step) * 2, 2));
        graph::ComputationGraph cg_n;
        const float ln = naive.trainBatch(
            nm->model(), cg_n,
            train::buildSuperGraph(
                *nm, cg_n, static_cast<std::size_t>(step) * 2, 2));
        ASSERT_TRUE(std::isfinite(lv));
        EXPECT_NEAR(lv, ln, 2e-3 * std::abs(ln) + 2e-3)
            << app << " step " << step;
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
    expectVppsMatchesBaseline(GetParam(), gpusim::DeviceSpec{});
}

TEST_P(AllAppsEquivalenceTest, OnSmallerGpu)
{
    // A hypothetical 20-SM part with 128 KB register files: the
    // distribution spreads rows over far fewer VPPs and the capacity
    // decisions differ, but the math must not.
    gpusim::DeviceSpec small;
    small.num_sms = 20;
    small.regfile_bytes_per_sm = 128 * 1024;
    expectVppsMatchesBaseline(GetParam(), small);
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
                std::uint32_t bits;
                std::memcpy(&bits, &loss, sizeof(bits));
                EXPECT_EQ(bits, pin.loss_bits[step])
                    << "step " << step << std::hex << std::showbase
                    << ": " << bits;
            }
            std::vector<std::uint8_t> bytes;
            const auto& model = m->model();
            for (graph::ParamId id = 0; id < model.numParams(); ++id) {
                const auto& p = model.param(id);
                const auto* data = reinterpret_cast<const std::uint8_t*>(
                    f.device.memory().data(p.value));
                bytes.insert(bytes.end(), data,
                             data + p.shape.size() * sizeof(float));
            }
            const std::uint64_t digest = common::fnv1a64(bytes);
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
                std::uint32_t bits;
                std::memcpy(&bits, &loss, sizeof(bits));
                EXPECT_EQ(bits, pin.loss_bits[run])
                    << "run " << run << std::hex << std::showbase
                    << ": " << bits;
            }
            if (!mode.functional)
                continue;
            std::vector<std::uint8_t> bytes;
            const auto& model = m->model();
            for (graph::ParamId id = 0; id < model.numParams(); ++id) {
                const auto& p = model.param(id);
                const auto* data = reinterpret_cast<const std::uint8_t*>(
                    f.device.memory().data(p.value));
                bytes.insert(bytes.end(), data,
                             data + p.shape.size() * sizeof(float));
            }
            const std::uint64_t digest = common::fnv1a64(bytes);
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

/** Simulated cost and loss of one batch through a baseline. */
struct BaselinePin
{
    const char* app;
    const char* system;
    double cpu_us;
    double gpu_us;
    std::uint64_t launches;
    std::uint32_t loss_bits;
};

const BaselinePin kBaselinePins[] = {
    {"Tree-LSTM", "Naive", 0x1.c15cccccccccdp+12, 0x1.79068a5723f38p+14,
     2179, 0x40d1eda2},
    {"Tree-LSTM", "DyNet-DB", 0x1.282cccccccccdp+11,
     0x1.5b0ed6c0c40cap+11, 276, 0x40d1eda2},
    {"Tree-LSTM", "DyNet-AB", 0x1.75fd70a3d70a4p+11,
     0x1.aed11bc01d978p+11, 371, 0x40d1eda2},
    {"Tree-LSTM", "TF-Fold", 0x1.2296666666666p+12,
     0x1.0b3a1e1314b9bp+12, 480, 0x40d1eda2},
    {"BiLSTM", "Naive", 0x1.0d75eac67846p+13, 0x1.80779e86a1f5ap+14,
     2602, 0x42ad31b0},
    {"BiLSTM", "DyNet-DB", 0x1.9b061180477e7p+11, 0x1.a5ee47aaa73ep+11,
     392, 0x42ad31b0},
    {"BiLSTM", "DyNet-AB", 0x1.cabdbf94c25fbp+11, 0x1.c69ea2b05799p+11,
     430, 0x42ad31b0},
    {"BiLSTM", "TF-Fold", 0x1.b4c308c023bf4p+12, 0x1.719cc97af9443p+12,
     738, 0x42ad31b0},
};

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

TEST(BaselineBatch, OneBatchPerStrategyIsPinned)
{
    // The baselines' schedules and overhead models must not move
    // under refactors either: one functional four-input batch through
    // each strategy pins its host and device time, its kernel
    // launches and its loss bits.
    for (const BaselinePin& pin : kBaselinePins) {
        SCOPED_TRACE(testing::Message() << pin.app << " on "
                                        << pin.system);
        Factory f(gpusim::DeviceSpec{});
        auto m = f.make(pin.app);
        auto executor = makeBaseline(pin.system, f.device);
        ASSERT_STREQ(executor->name(), pin.system);
        graph::ComputationGraph cg;
        const float loss = executor->trainBatch(
            m->model(), cg, train::buildSuperGraph(*m, cg, 0, 4));
        const exec::ExecStats& s = executor->stats();
        EXPECT_EQ(s.cpu_us, pin.cpu_us) << std::hexfloat << s.cpu_us;
        EXPECT_EQ(s.gpu_us, pin.gpu_us) << std::hexfloat << s.gpu_us;
        EXPECT_EQ(s.launches, pin.launches);
        std::uint32_t bits;
        std::memcpy(&bits, &loss, sizeof(bits));
        EXPECT_EQ(bits, pin.loss_bits)
            << std::hex << std::showbase << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(SevenApps, AllAppsEquivalenceTest,
                         testing::Values("Tree-LSTM", "BiLSTM",
                                         "BiLSTMwChar", "BiGRU",
                                         "TD-RNN", "TD-LSTM", "RvNN"),
                         appIdent);

} // namespace

/**
 * @file
 * The core guarantee, swept across every application: training any
 * of the seven dynamic nets through the VPPS persistent kernel
 * produces the same losses as the per-node baseline -- and this holds
 * on non-default device geometries (fewer SMs, smaller register
 * files), where the distribution plan and script differ entirely.
 * One timing-only batch per app also pins its simulated time.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <ios>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/naive_executor.hpp"
#include "models/bigru_tagger.hpp"
#include "models/bilstm_char_tagger.hpp"
#include "models/bilstm_tagger.hpp"
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

INSTANTIATE_TEST_SUITE_P(SevenApps, AllAppsEquivalenceTest,
                         testing::Values("Tree-LSTM", "BiLSTM",
                                         "BiLSTMwChar", "BiGRU",
                                         "TD-RNN", "TD-LSTM", "RvNN"),
                         appIdent);

} // namespace

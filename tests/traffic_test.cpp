/**
 * @file
 * DRAM traffic invariants across execution strategies and apps --
 * the accounting that Fig 2 and Table I are built from.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/agenda_batch_executor.hpp"
#include "exec/naive_executor.hpp"
#include "models/bi_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

using gpusim::MemSpace;

struct AppFactory
{
    gpusim::Device device{gpusim::DeviceSpec{}, 64u << 20};
    common::Rng data_rng{91};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 10, data_rng, 8.0, 4, 12};
    data::NerCorpus corpus{vocab, 10, data_rng, 8.0, 4, 12};
    common::Rng param_rng{92};

    std::unique_ptr<models::BenchmarkModel>
    make(const std::string& app)
    {
        if (app == "Tree-LSTM")
            return std::make_unique<models::TreeLstmModel>(
                bank, vocab, 16, 32, device, param_rng);
        if (app == "TD-LSTM")
            return std::make_unique<models::TdLstmModel>(
                bank, vocab, 32, device, param_rng);
        if (app == "BiGRU")
            return std::make_unique<models::BiGruTagger>(
                corpus, vocab, 16, 24, 16, device, param_rng);
        return std::make_unique<models::RvnnModel>(
            bank, vocab, 32, device, param_rng);
    }
};

class TrafficInvariantTest : public testing::TestWithParam<const char*>
{
};

/** VPPS weight loads = W_total per batch, for every application. */
TEST_P(TrafficInvariantTest, VppsLoadsWeightsOncePerBatch)
{
    AppFactory f;
    auto model = f.make(GetParam());
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(model->model(), f.device, opts);
    f.device.traffic().reset();
    for (int b = 0; b < 3; ++b) {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(
            *model, cg, static_cast<std::size_t>(b) * 2, 2);
        handle.fb(model->model(), cg, loss);
    }
    EXPECT_NEAR(f.device.traffic().loadBytes(MemSpace::Weights),
                3.0 * model->model().totalWeightMatrixBytes(), 1.0)
        << GetParam();
}

/** Baselines reload weights many times per batch (Fig 2's cause). */
TEST_P(TrafficInvariantTest, BaselineReloadsWeightsManyTimes)
{
    AppFactory f;
    auto model = f.make(GetParam());
    exec::AgendaBatchExecutor executor(f.device, gpusim::HostSpec{});
    f.device.traffic().reset();
    graph::ComputationGraph cg;
    auto loss = train::buildSuperGraph(*model, cg, 0, 2);
    executor.trainBatch(model->model(), cg, loss);
    EXPECT_GT(f.device.traffic().loadBytes(MemSpace::Weights),
              3.0 * model->model().totalWeightMatrixBytes())
        << GetParam()
        << ": fwd + bwd + update alone give >= 3x, plus per-group "
           "reloads";
}

/**
 * Weight loads are a major share of baseline DRAM loads. (At the
 * paper's dimensions they are the majority -- Fig 2, checked by the
 * fig02 bench; the tiny test dimensions here shift some share to
 * activations, so the unit test asserts a weaker bound.)
 */
TEST_P(TrafficInvariantTest, WeightsAreMajorBaselineCategory)
{
    AppFactory f;
    auto model = f.make(GetParam());
    exec::AgendaBatchExecutor executor(f.device, gpusim::HostSpec{});
    f.device.traffic().reset();
    graph::ComputationGraph cg;
    auto loss = train::buildSuperGraph(*model, cg, 0, 4);
    executor.trainBatch(model->model(), cg, loss);
    const auto& t = f.device.traffic();
    EXPECT_GT(t.loadBytes(MemSpace::Weights),
              0.2 * t.totalLoadBytes());
}

/** Batching reduces baseline weight traffic (Table I's trend). */
TEST_P(TrafficInvariantTest, LargerBatchesLoadFewerWeightsPerInput)
{
    AppFactory f;
    auto model = f.make(GetParam());
    auto weights_per_input = [&](std::size_t batch) {
        exec::AgendaBatchExecutor executor(f.device,
                                           gpusim::HostSpec{});
        f.device.traffic().reset();
        std::size_t trained = 0;
        while (trained < 8) {
            graph::ComputationGraph cg;
            auto loss =
                train::buildSuperGraph(*model, cg, trained, batch);
            executor.trainBatch(model->model(), cg, loss);
            trained += batch;
        }
        return f.device.traffic().loadBytes(MemSpace::Weights) / 8.0;
    };
    EXPECT_GT(weights_per_input(1), 1.5 * weights_per_input(8))
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, TrafficInvariantTest,
                         testing::Values("Tree-LSTM", "TD-LSTM",
                                         "BiGRU", "RvNN"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

/** Script traffic exists and scales with batch size for VPPS. */
TEST(Traffic, ScriptTransferScalesWithBatch)
{
    AppFactory f;
    auto model = f.make("Tree-LSTM");
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(model->model(), f.device, opts);

    auto script_bytes = [&](std::size_t batch) {
        f.device.traffic().reset();
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(*model, cg, 0, batch);
        handle.fb(model->model(), cg, loss);
        return f.device.traffic().loadBytes(MemSpace::Script);
    };
    // At batch 1 the script is dominated by the per-phase signal/
    // wait instructions (all matrix-holding VPPs participate in
    // every phase regardless of batch); per-node content grows with
    // batch on top of that roughly-constant sync floor.
    const double one = script_bytes(1);
    const double sixteen = script_bytes(16);
    EXPECT_GT(one, 0.0);
    EXPECT_GT(sixteen, 2.0 * one);
    EXPECT_LT(sixteen, 16.0 * one);
}

/** Atomics are only charged where the design requires them:
 *  transposed matvec and lookup scatter. */
TEST(Traffic, AtomicsComeFromTransposedProductsAndScatters)
{
    AppFactory f;
    auto model = f.make("Tree-LSTM");
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(model->model(), f.device, opts);
    f.device.traffic().reset();
    graph::ComputationGraph cg;
    auto loss = train::buildSuperGraph(*model, cg, 0, 2);
    handle.fb(model->model(), cg, loss);
    EXPECT_GT(f.device.traffic().atomicOps(), 0.0);
}

/** Higher rpw reduces the transposed product's atomics (the paper's
 *  stated reason for multi-row warp granularity). */
TEST(Traffic, LargerRpwIssuesFewerAtomics)
{
    auto atomics_at = [](int rpw) {
        AppFactory f;
        auto model = f.make("Tree-LSTM");
        vpps::VppsOptions opts;
        opts.rpw = rpw;
        vpps::Handle handle(model->model(), f.device, opts);
        f.device.traffic().reset();
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(*model, cg, 0, 2);
        handle.fb(model->model(), cg, loss);
        return f.device.traffic().atomicOps();
    };
    const double fine = atomics_at(1);
    const double coarse = atomics_at(4);
    EXPECT_GT(fine, 2.0 * coarse);
}

} // namespace

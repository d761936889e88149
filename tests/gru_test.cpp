/** @file Tests for the GRU builder and BiGRU tagger -- the RNN
 *  variation the paper cites as needing no VPPS re-engineering. */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/vocab.hpp"
#include "exec/kernels.hpp"
#include "exec/naive_executor.hpp"
#include "graph/level_sort.hpp"
#include "models/bi_tagger.hpp"
#include "models/gru.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

TEST(GruBuilder, RegistersCombinedGateTransforms)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 8u << 20);
    graph::Model model;
    models::GruBuilder gru(model, "g", 8, 16);
    common::Rng rng(81);
    model.allocate(device, rng);
    // W is 3H x I, U is 3H x H, b is 3H.
    EXPECT_EQ(model.param(0).shape, tensor::Shape(48, 8));
    EXPECT_EQ(model.param(1).shape, tensor::Shape(48, 16));
    EXPECT_EQ(model.param(2).shape, tensor::Shape(48));
    EXPECT_EQ(gru.hiddenDim(), 16u);
}

TEST(GruBuilder, HiddenStateStaysBounded)
{
    // GRU state is a convex-ish mix of tanh outputs and the previous
    // state, so |h| must stay within (-1, 1) from a zero start.
    gpusim::Device device(gpusim::DeviceSpec{}, 8u << 20);
    graph::Model model;
    models::GruBuilder gru(model, "g", 4, 8);
    common::Rng rng(82);
    model.allocate(device, rng);

    graph::ComputationGraph cg;
    auto h = gru.start(cg);
    for (int t = 0; t < 6; ++t)
        h = gru.next(model, h,
                     graph::input(cg, {0.9f, -0.7f, 0.5f, -0.3f}));
    // Evaluate forward.
    const auto live = std::vector<bool>(cg.size(), true);
    exec::placeForward(device, model, cg, live);
    for (graph::NodeId id = 0; id < cg.size(); ++id)
        exec::computeNodeForward(device, model, cg, id);
    const float* out = device.memory().data(cg.node(h.id).fwd);
    for (int i = 0; i < 8; ++i) {
        EXPECT_LT(std::abs(out[i]), 1.0f);
        EXPECT_TRUE(std::isfinite(out[i]));
    }
}

struct GruRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{83};
    data::Vocab vocab{300, 10000};
    data::NerCorpus corpus{vocab, 10, data_rng, 8.0, 4, 12};
    common::Rng param_rng{84};
    models::BiGruTagger model{corpus, vocab, 16, 24,
                              16,     device, param_rng};
};

TEST(BiGruTagger, BuildsDynamicTrainableGraphs)
{
    GruRig rig;
    exec::NaiveExecutor executor(rig.device, gpusim::HostSpec{});
    std::set<std::size_t> sizes;
    for (std::size_t i = 0; i < 4; ++i) {
        graph::ComputationGraph cg;
        auto loss = rig.model.buildLoss(cg, i);
        sizes.insert(cg.size());
        const float v = executor.trainBatch(rig.model.model(), cg,
                                            loss);
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GT(v, 0.0f);
    }
    EXPECT_GT(sizes.size(), 1u);
}

TEST(BiGruTagger, VppsMatchesBaselineWithNoGruSpecificCode)
{
    // The portability claim, as a test: training the GRU variant
    // through the persistent kernel needs nothing beyond what the
    // LSTM apps already exercised, and produces identical math.
    GruRig vpps_rig;
    GruRig naive_rig;

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(vpps_rig.model.model(), vpps_rig.device,
                        opts);
    exec::NaiveExecutor naive(naive_rig.device, gpusim::HostSpec{});

    for (int step = 0; step < 3; ++step) {
        graph::ComputationGraph cg_a;
        const float la = handle.fb(
            vpps_rig.model.model(), cg_a,
            train::buildSuperGraph(vpps_rig.model, cg_a,
                                   static_cast<std::size_t>(step) * 2,
                                   2));
        graph::ComputationGraph cg_b;
        const float lb = naive.trainBatch(
            naive_rig.model.model(), cg_b,
            train::buildSuperGraph(naive_rig.model, cg_b,
                                   static_cast<std::size_t>(step) * 2,
                                   2));
        EXPECT_NEAR(la, lb, 1e-3 * std::abs(la) + 1e-3)
            << "GRU through VPPS diverged at step " << step;
    }
}

TEST(BiGruTagger, WeightTrafficStillOneLoadPerBatch)
{
    GruRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    rig.device.traffic().reset();
    graph::ComputationGraph cg;
    auto loss = train::buildSuperGraph(rig.model, cg, 0, 2);
    handle.fb(rig.model.model(), cg, loss);
    EXPECT_NEAR(rig.device.traffic().loadBytes(
                    gpusim::MemSpace::Weights),
                rig.model.model().totalWeightMatrixBytes(), 1.0);
}

} // namespace

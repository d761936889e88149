/** @file Unit tests for the six benchmark applications. */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/naive_executor.hpp"
#include "graph/level_sort.hpp"
#include "models/bi_tagger.hpp"
#include "models/bilstm_char_tagger.hpp"
#include "models/lstm.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/td_rnn.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"

namespace {

struct ModelRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 64u << 20};
    common::Rng data_rng{41};
    data::Vocab vocab{500, 10000};
    data::Treebank bank{vocab, 12, data_rng, 8.0, 4, 12};
    data::NerCorpus ner{vocab, 12, data_rng, 8.0, 4, 12};
    common::Rng param_rng{42};

    std::unique_ptr<models::BenchmarkModel>
    make(const std::string& app)
    {
        if (app == "Tree-LSTM")
            return std::make_unique<models::TreeLstmModel>(
                bank, vocab, 16, 32, device, param_rng);
        if (app == "BiLSTM")
            return std::make_unique<models::BiLstmTagger>(
                ner, vocab, 16, 24, 16, device, param_rng);
        if (app == "BiLSTMwChar")
            return std::make_unique<models::BiLstmCharTagger>(
                ner, vocab, 16, 24, 16, 8, device, param_rng);
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

class AllModelsTest : public testing::TestWithParam<const char*>
{
};

TEST_P(AllModelsTest, BuildsTrainableGraphsForEveryInput)
{
    ModelRig rig;
    auto model = rig.make(GetParam());
    EXPECT_GT(model->datasetSize(), 0u);
    EXPECT_FALSE(model->model().weightMatrices().empty());

    exec::NaiveExecutor executor(rig.device, gpusim::HostSpec{});
    for (std::size_t i = 0; i < 4; ++i) {
        graph::ComputationGraph cg;
        auto loss = model->buildLoss(cg, i);
        EXPECT_TRUE(loss.shape().isScalar());
        const float value =
            executor.trainBatch(model->model(), cg, loss);
        EXPECT_TRUE(std::isfinite(value));
        EXPECT_GT(value, 0.0f) << GetParam() << " input " << i;
    }
}

TEST_P(AllModelsTest, GraphShapeVariesAcrossInputs)
{
    ModelRig rig;
    auto model = rig.make(GetParam());
    std::set<std::size_t> node_counts;
    for (std::size_t i = 0; i < 8; ++i) {
        graph::ComputationGraph cg;
        model->buildLoss(cg, i);
        node_counts.insert(cg.size());
    }
    EXPECT_GT(node_counts.size(), 2u)
        << "a dynamic net must induce different graphs per input";
}

INSTANTIATE_TEST_SUITE_P(SixApps, AllModelsTest,
                         testing::Values("Tree-LSTM", "BiLSTM",
                                         "BiLSTMwChar", "TD-RNN",
                                         "TD-LSTM", "RvNN"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(LstmBuilder, GateDimensionsAndStateFlow)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 8u << 20);
    graph::Model model;
    models::LstmBuilder lstm(model, "test", 8, 16);
    common::Rng rng(43);
    model.allocate(device, rng);
    EXPECT_EQ(lstm.hiddenDim(), 16u);
    // Wx is 4H x I, Wh is 4H x H.
    EXPECT_EQ(model.param(0).shape, tensor::Shape(64, 8));
    EXPECT_EQ(model.param(1).shape, tensor::Shape(64, 16));
    EXPECT_EQ(model.param(2).shape, tensor::Shape(64));

    graph::ComputationGraph cg;
    auto s0 = lstm.start(cg);
    EXPECT_EQ(s0.h.shape(), tensor::Shape(16));
    auto x = graph::input(cg, std::vector<float>(8, 0.5f));
    auto s1 = lstm.next(model, s0, x);
    EXPECT_EQ(s1.h.shape(), tensor::Shape(16));
    EXPECT_EQ(s1.c.shape(), tensor::Shape(16));
}

TEST(TreeLstm, GraphDepthTracksParseDepth)
{
    ModelRig rig;
    auto model = rig.make("Tree-LSTM");
    std::size_t deepest_tree = 0, deepest_graph = 0;
    std::size_t shallowest_tree = 1000, shallowest_graph = 100000;
    for (std::size_t i = 0; i < 8; ++i) {
        graph::ComputationGraph cg;
        model->buildLoss(cg, i);
        const auto levels = graph::computeLevels(cg);
        const std::size_t d = rig.bank.sentence(i).depth();
        if (d > deepest_tree) {
            deepest_tree = d;
            deepest_graph = levels.size();
        }
        if (d < shallowest_tree) {
            shallowest_tree = d;
            shallowest_graph = levels.size();
        }
    }
    EXPECT_GT(deepest_graph, shallowest_graph)
        << "deeper parses must induce deeper graphs";
}

TEST(BiLstmChar, RareWordsUseCharacterPath)
{
    ModelRig rig;
    // Find a sentence containing at least one rare word; there is
    // almost surely one given Zipf frequencies.
    auto tagger = std::make_unique<models::BiLstmCharTagger>(
        rig.ner, rig.vocab, 16, 24, 16, 8, rig.device, rig.param_rng);
    bool found_rare = false;
    for (std::size_t i = 0; i < rig.ner.size() && !found_rare; ++i)
        for (auto w : rig.ner.sentence(i).words)
            found_rare |= rig.vocab.isRare(w);
    ASSERT_TRUE(found_rare) << "corpus must exercise the char path";

    // The char model must build strictly larger graphs than the
    // plain tagger on the same data (extra char LSTMs).
    common::Rng prng2(42);
    gpusim::Device device2(gpusim::DeviceSpec{}, 64u << 20);
    models::BiLstmTagger plain(rig.ner, rig.vocab, 16, 24, 16,
                               device2, prng2);
    std::size_t char_nodes = 0, plain_nodes = 0;
    for (std::size_t i = 0; i < rig.ner.size(); ++i) {
        graph::ComputationGraph a, b;
        tagger->buildLoss(a, i);
        plain.buildLoss(b, i);
        char_nodes += a.size();
        plain_nodes += b.size();
    }
    EXPECT_GT(char_nodes, plain_nodes);
}

TEST(TdRnn, PyramidReducesToSingleVector)
{
    ModelRig rig;
    auto model = rig.make("TD-RNN");
    // Node count grows quadratically with sentence length: n leaves
    // produce n(n-1)/2 compositions.
    graph::ComputationGraph cg;
    model->buildLoss(cg, 0);
    const std::size_t len = rig.bank.sentence(0).length();
    const std::size_t compositions = len * (len - 1) / 2;
    EXPECT_GE(cg.size(), compositions * 3);
}

TEST(RvNN, UntiedLeafAndInternalWeights)
{
    ModelRig rig;
    gpusim::Device device(gpusim::DeviceSpec{}, 64u << 20);
    common::Rng prng(44);
    models::RvnnModel rvnn(rig.bank, rig.vocab, 32, device, prng);
    const auto mats = rvnn.model().weightMatrices();
    // W_leaf (H x H), W_int (H x 2H), W_s: three distinct matrices.
    ASSERT_EQ(mats.size(), 3u);
    EXPECT_EQ(rvnn.model().param(mats[0]).shape,
              tensor::Shape(32, 32));
    EXPECT_EQ(rvnn.model().param(mats[1]).shape,
              tensor::Shape(32, 64));
}

} // namespace

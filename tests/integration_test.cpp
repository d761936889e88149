/**
 * @file
 * Whole-system integration tests: real training runs must converge
 * (loss decreases) under every execution strategy, across several of
 * the benchmark applications, and the simulator's accounting must be
 * internally consistent (e.g. VPPS weight traffic == one weight load
 * per batch).
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "exec/agenda_batch_executor.hpp"
#include "exec/depth_batch_executor.hpp"
#include "exec/fold_executor.hpp"
#include "exec/naive_executor.hpp"
#include "models/bi_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "train/sgd.hpp"
#include "vpps/handle.hpp"

namespace {

constexpr std::size_t kPool = 48u << 20;

/** Train a few epochs through VPPS; mean loss must drop. */
TEST(Integration, TreeLstmConvergesUnderVpps)
{
    gpusim::Device device(gpusim::DeviceSpec{}, kPool);
    common::Rng rng(11);
    data::Vocab vocab(300);
    data::Treebank bank(vocab, 16, rng, 8.0, 4, 12);
    common::Rng prng(1);
    models::TreeLstmModel model(bank, vocab, 32, 48, device, prng);
    train::SgdConfig{0.2f, 0.0f}.apply(model.model());

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(model.model(), device, opts);

    constexpr int kEpochs = 25;
    train::LossTracker first_epoch, last_epoch;
    const std::size_t batch = 4;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        for (std::size_t i = 0; i < bank.size(); i += batch) {
            graph::ComputationGraph cg;
            auto loss = train::buildSuperGraph(model, cg, i, batch);
            const float l = handle.fb(model.model(), cg, loss);
            if (epoch == 0)
                first_epoch.add(l);
            if (epoch == kEpochs - 1)
                last_epoch.add(l);
        }
    }
    EXPECT_LT(last_epoch.mean(), 0.5f * first_epoch.mean())
        << "training through VPPS failed to reduce the loss";
}

TEST(Integration, BiLstmConvergesUnderAgendaBatching)
{
    gpusim::Device device(gpusim::DeviceSpec{}, kPool);
    common::Rng rng(12);
    data::Vocab vocab(300);
    data::NerCorpus corpus(vocab, 12, rng, 8.0, 4, 12);
    common::Rng prng(2);
    models::BiLstmTagger model(corpus, vocab, 32, 32, 32, device,
                               prng);
    train::SgdConfig{0.1f, 0.0f}.apply(model.model());

    exec::AgendaBatchExecutor executor(device, gpusim::HostSpec{});
    train::LossTracker first_epoch, last_epoch;
    for (int epoch = 0; epoch < 6; ++epoch) {
        for (std::size_t i = 0; i < corpus.size(); i += 4) {
            graph::ComputationGraph cg;
            auto loss = train::buildSuperGraph(model, cg, i, 4);
            const float l =
                executor.trainBatch(model.model(), cg, loss);
            if (epoch == 0)
                first_epoch.add(l);
            if (epoch == 5)
                last_epoch.add(l);
        }
    }
    EXPECT_LT(last_epoch.mean(), 0.8f * first_epoch.mean());
}

/** VPPS loads each weight matrix exactly once per batch (the Table I
 *  claim), independent of how many times the batch uses it. */
TEST(Integration, VppsWeightTrafficIsOneLoadPerBatch)
{
    gpusim::Device device(gpusim::DeviceSpec{}, kPool);
    common::Rng rng(13);
    data::Vocab vocab(300);
    data::Treebank bank(vocab, 8, rng, 10.0, 6, 14);
    common::Rng prng(3);
    models::TreeLstmModel model(bank, vocab, 32, 48, device, prng);

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(model.model(), device, opts);

    device.traffic().reset();
    const int batches = 3;
    for (int b = 0; b < batches; ++b) {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(
            model, cg, static_cast<std::size_t>(b) * 2, 2);
        handle.fb(model.model(), cg, loss);
    }
    const double loaded =
        device.traffic().loadBytes(gpusim::MemSpace::Weights);
    const double expected =
        model.model().totalWeightMatrixBytes() * batches;
    EXPECT_NEAR(loaded, expected, 1.0)
        << "register caching must load weights exactly once per batch";
}

/** All four baselines agree with each other on the loss sequence. */
TEST(Integration, AllBaselinesAgreeOnLosses)
{
    auto run = [](auto make_executor) {
        gpusim::Device device(gpusim::DeviceSpec{}, kPool);
        common::Rng rng(14);
        data::Vocab vocab(200);
        data::Treebank bank(vocab, 8, rng, 8.0, 4, 12);
        common::Rng prng(4);
        models::RvnnModel model(bank, vocab, 32, device, prng);
        auto executor = make_executor(device);
        std::vector<float> losses;
        for (int step = 0; step < 3; ++step) {
            graph::ComputationGraph cg;
            auto loss = train::buildSuperGraph(
                model, cg, static_cast<std::size_t>(step) * 2, 2);
            losses.push_back(
                executor->trainBatch(model.model(), cg, loss));
        }
        return losses;
    };

    const auto naive = run([](gpusim::Device& d) {
        return std::make_unique<exec::NaiveExecutor>(
            d, gpusim::HostSpec{});
    });
    const auto depth = run([](gpusim::Device& d) {
        return std::make_unique<exec::DepthBatchExecutor>(
            d, gpusim::HostSpec{});
    });
    const auto agenda = run([](gpusim::Device& d) {
        return std::make_unique<exec::AgendaBatchExecutor>(
            d, gpusim::HostSpec{});
    });
    const auto fold = run([](gpusim::Device& d) {
        return std::make_unique<exec::FoldExecutor>(
            d, gpusim::HostSpec{});
    });
    for (std::size_t i = 0; i < naive.size(); ++i) {
        EXPECT_NEAR(naive[i], depth[i], 1e-3);
        EXPECT_NEAR(naive[i], agenda[i], 1e-3);
        EXPECT_NEAR(naive[i], fold[i], 1e-3);
    }
}

/** Timing-only mode must not change simulated durations. */
TEST(Integration, TimingOnlyModeMatchesFunctionalTiming)
{
    auto run = [](bool functional) {
        gpusim::Device device(gpusim::DeviceSpec{}, kPool);
        device.setFunctional(functional);
        common::Rng rng(15);
        data::Vocab vocab(200);
        data::Treebank bank(vocab, 8, rng, 8.0, 4, 12);
        common::Rng prng(5);
        models::TreeLstmModel model(bank, vocab, 32, 48, device, prng);
        vpps::VppsOptions opts;
        opts.rpw = 2;
        vpps::Handle handle(model.model(), device, opts);
        for (int step = 0; step < 2; ++step) {
            graph::ComputationGraph cg;
            auto loss = train::buildSuperGraph(
                model, cg, static_cast<std::size_t>(step) * 2, 2);
            handle.fb(model.model(), cg, loss);
        }
        return handle.stats().wall_us;
    };
    EXPECT_DOUBLE_EQ(run(true), run(false));
}

} // namespace

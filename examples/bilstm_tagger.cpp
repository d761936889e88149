/**
 * @file
 * BiLSTM named-entity tagger (Section IV-E) trained through VPPS,
 * with tagging accuracy tracked on a held-out slice.
 *
 * Demonstrates a second kind of dynamism -- per-word losses over
 * variable-length sentences -- and shows how to run an
 * evaluation-only pass with the baseline executor while training
 * through the persistent kernel.
 */
#include <iostream>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/vocab.hpp"
#include "exec/kernels.hpp"
#include "graph/level_sort.hpp"
#include "models/bi_tagger.hpp"
#include "train/harness.hpp"
#include "train/sgd.hpp"
#include "vpps/handle.hpp"

namespace {

/** Forward-only evaluation: fraction of words tagged correctly. */
double
tagAccuracy(gpusim::Device& device, models::BiLstmTagger& tagger,
            const data::NerCorpus& corpus, std::size_t begin,
            std::size_t end)
{
    std::size_t correct = 0, total = 0;
    auto& mem = device.memory();
    for (std::size_t i = begin; i < end; ++i) {
        const auto mark = mem.mark();
        graph::ComputationGraph cg;
        auto loss = tagger.buildLoss(cg, i);
        const auto live = graph::reachableFrom(cg, loss.id);
        exec::placeForward(device, tagger.model(), cg, live);
        for (graph::NodeId id = 0; id < cg.size(); ++id)
            if (live[id])
                exec::computeNodeForward(device, tagger.model(), cg,
                                         id);
        // Each PickNLS node stashed its softmax in aux_mem; argmax
        // against the gold label.
        const auto& sent = corpus.sentence(i);
        std::size_t word = 0;
        for (graph::NodeId id = 0; id < cg.size(); ++id) {
            const auto& n = cg.node(id);
            if (!live[id] || n.op != graph::OpType::PickNLS)
                continue;
            const float* probs = mem.data(n.aux_mem);
            const std::size_t len =
                cg.node(n.args[0]).shape.size();
            std::size_t best = 0;
            for (std::size_t k = 1; k < len; ++k)
                if (probs[k] > probs[best])
                    best = k;
            correct += best == sent.tags[word] ? 1 : 0;
            ++total;
            ++word;
        }
        mem.resetTo(mark);
    }
    return static_cast<double>(correct) / static_cast<double>(total);
}

} // namespace

int
main()
{
    gpusim::Device device(gpusim::DeviceSpec{}, 192u << 20);
    common::Rng data_rng(17);
    data::Vocab vocab(3000, 30000);
    data::NerCorpus corpus(vocab, 80, data_rng, 10.0, 5, 16);

    common::Rng param_rng(23);
    models::BiLstmTagger tagger(corpus, vocab, 48, 48, 48, device,
                                param_rng);
    train::SgdConfig{0.01f, 0.0f}.apply(tagger.model());

    vpps::Handle handle(tagger.model(), device);

    const std::size_t train_end = 64; // 64 train / 16 eval split
    const std::size_t batch = 8;
    std::cout << "initial accuracy "
              << tagAccuracy(device, tagger, corpus, train_end,
                             corpus.size())
              << "\n";
    // Words per batch for loss normalization.
    auto words_in = [&](std::size_t begin, std::size_t count) {
        std::size_t words = 0;
        for (std::size_t i = begin; i < begin + count; ++i)
            words += corpus.sentence(i % corpus.size()).length();
        return static_cast<float>(words);
    };
    for (int epoch = 0; epoch < 8; ++epoch) {
        train::LossTracker tracker;
        for (std::size_t i = 0; i < train_end; i += batch) {
            graph::ComputationGraph cg;
            auto loss = train::buildSuperGraph(tagger, cg, i, batch);
            handle.fb(tagger.model(), cg, loss);
            tracker.add(handle.sync_get_latest_loss() /
                        words_in(i, batch));
        }
        std::cout << "epoch " << epoch << "  loss/word "
                  << tracker.mean() << "  held-out accuracy "
                  << tagAccuracy(device, tagger, corpus, train_end,
                                 corpus.size())
                  << "\n";
    }
    std::cout << "trained " << handle.stats().batches
              << " batches; simulated wall "
              << handle.stats().wall_us / 1e6 << " s\n";
    return 0;
}

/**
 * @file
 * The bidirectional taggers: BiLSTM (based on [25]), its GRU twin, and
 * the body both share with BiLSTMwChar (Section IV-E).
 *
 * A forward and a backward recurrence run over the word vectors; each
 * word's two hidden states are concatenated and passed through an MLP
 * to predict its tag. The sentence length varies per input, making the
 * computation graph dynamic.
 *
 * The body is a template over the cell builder, and only the cell
 * differs between BiLSTM and BiGRU. Swapping it changes the parameter
 * set and the graph shape, yet VPPS needs no kernel re-engineering:
 * the paper's portability claim about RNN variations, measured by the
 * extension bench `ext_bigru_tagger`.
 */
#pragma once

#include <vector>

#include "data/ner_corpus.hpp"
#include "gpusim/device.hpp"
#include "models/benchmark_model.hpp"
#include "models/gru.hpp"
#include "models/lstm.hpp"

namespace models {

/**
 * What every bidirectional tagger builds over its word vectors: the
 * two recurrences, then per word a concat, the MLP, the tag logits
 * and a pickNegLogSoftmax, summed over the sentence.
 *
 * Parameters register in two steps so a tagger can register its
 * embeddings in between: the constructor registers the forward and
 * backward cells ("fwd", "bwd"), addHead() the MLP and the tag layer.
 * Model::allocate() draws initial values in registration order, so
 * that order is part of every pinned result.
 */
template <class Cell>
class BiTaggerBody
{
  public:
    BiTaggerBody(graph::Model& model, std::uint32_t input_dim,
                 std::uint32_t hidden_dim);

    /** Register W_mlp (mlp x 2H), b_mlp, W_tag (tags x mlp), b_tag. */
    void addHead(graph::Model& model, std::uint32_t mlp_dim);

    /** @return the summed tag loss of a sentence whose words embed as
     *  @p xs and whose gold tags are @p tags. */
    graph::Expr loss(graph::ComputationGraph& cg,
                     const graph::Model& model,
                     const std::vector<graph::Expr>& xs,
                     const std::vector<std::uint32_t>& tags) const;

  private:
    Cell fwd_;
    Cell bwd_;
    graph::ParamId w_mlp_ = 0;
    graph::ParamId b_mlp_ = 0;
    graph::ParamId w_tag_ = 0;
    graph::ParamId b_tag_ = 0;
};

/** A tagger whose word vectors are plain embedding lookups. */
template <class Cell>
class BiRnnTagger : public BenchmarkModel
{
  public:
    BiRnnTagger(const data::NerCorpus& corpus, const data::Vocab& vocab,
                std::uint32_t embed_dim, std::uint32_t hidden_dim,
                std::uint32_t mlp_dim, gpusim::Device& device,
                common::Rng& rng);

    graph::Expr buildLoss(graph::ComputationGraph& cg,
                          std::size_t index) override;

    std::size_t datasetSize() const override { return corpus_.size(); }

  private:
    const data::NerCorpus& corpus_;
    BiTaggerBody<Cell> body_;
    graph::ParamId embed_ = 0;
};

/** BiLSTM tagger. */
class BiLstmTagger : public BiRnnTagger<LstmBuilder>
{
  public:
    using BiRnnTagger::BiRnnTagger;

    const char* name() const override { return "BiLSTM"; }
};

/** BiGRU tagger: the BiLSTM tagger with the cell swapped for a GRU. */
class BiGruTagger : public BiRnnTagger<GruBuilder>
{
  public:
    using BiRnnTagger::BiRnnTagger;

    const char* name() const override { return "BiGRU"; }
};

} // namespace models

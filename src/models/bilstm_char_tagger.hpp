/**
 * @file
 * Bi-directional LSTM Tagger with Optional Character Features.
 *
 * Identical to BiLstmTagger except for words occurring fewer than
 * five times in the corpus: their embedding is produced by a second
 * bi-directional LSTM over the word's characters (Section IV-E). The
 * word vectors then go through the same BiTaggerBody as BiLSTM's.
 * Because rarity varies per word, the graph shape now depends on the
 * corpus statistics as well as the sentence length -- an extra source
 * of dynamism.
 */
#pragma once

#include "models/bi_tagger.hpp"

namespace models {

/** BiLSTM tagger with a character path for rare words. */
class BiLstmCharTagger : public BenchmarkModel
{
  public:
    /**
     * @param char_embed_dim character-embedding length (paper: 64)
     *
     * The character BiLSTM's hidden length is embed_dim / 2 per
     * direction so the concatenated char representation matches the
     * word-embedding length.
     */
    BiLstmCharTagger(const data::NerCorpus& corpus,
                     const data::Vocab& vocab, std::uint32_t embed_dim,
                     std::uint32_t hidden_dim, std::uint32_t mlp_dim,
                     std::uint32_t char_embed_dim,
                     gpusim::Device& device, common::Rng& rng);

    const char* name() const override { return "BiLSTMwChar"; }

    graph::Expr buildLoss(graph::ComputationGraph& cg,
                          std::size_t index) override;

    std::size_t datasetSize() const override { return corpus_.size(); }

  private:
    graph::Expr embedWord(graph::ComputationGraph& cg,
                          std::uint32_t word);

    const data::NerCorpus& corpus_;
    const data::Vocab& vocab_;

    graph::ParamId embed_;
    graph::ParamId char_embed_;
    LstmBuilder char_fwd_;
    LstmBuilder char_bwd_;
    BiTaggerBody<LstmBuilder> body_;
};

} // namespace models

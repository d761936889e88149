#include "models/bilstm_char_tagger.hpp"

#include "common/logging.hpp"

namespace models {

using namespace graph;

BiLstmCharTagger::BiLstmCharTagger(const data::NerCorpus& corpus,
                                   const data::Vocab& vocab,
                                   std::uint32_t embed_dim,
                                   std::uint32_t hidden_dim,
                                   std::uint32_t mlp_dim,
                                   std::uint32_t char_embed_dim,
                                   gpusim::Device& device,
                                   common::Rng& rng)
    : corpus_(corpus), vocab_(vocab),
      char_fwd_(model_, "char_fwd", char_embed_dim, embed_dim / 2),
      char_bwd_(model_, "char_bwd", char_embed_dim, embed_dim / 2),
      body_(model_, embed_dim, hidden_dim)
{
    if (embed_dim % 2 != 0)
        common::fatal("BiLstmCharTagger: embed_dim must be even");
    const auto vs = static_cast<std::uint32_t>(vocab.size());
    embed_ = model_.addLookup("embed", vs, embed_dim);
    char_embed_ = model_.addLookup("char_embed", data::Vocab::kAlphabet,
                                   char_embed_dim);
    body_.addHead(model_, mlp_dim);
    model_.allocate(device, rng);
}

Expr
BiLstmCharTagger::embedWord(ComputationGraph& cg, std::uint32_t word)
{
    if (!vocab_.isRare(word))
        return lookup(cg, model_, embed_, word);

    // Rare word: run the character BiLSTM over its spelling and use
    // the concatenated final states as the embedding.
    const auto chars = vocab_.chars(word);
    LstmBuilder::State f = char_fwd_.start(cg);
    for (std::uint32_t c : chars)
        f = char_fwd_.next(model_, f,
                           lookup(cg, model_, char_embed_, c));
    LstmBuilder::State b = char_bwd_.start(cg);
    for (auto it = chars.rbegin(); it != chars.rend(); ++it)
        b = char_bwd_.next(model_, b,
                           lookup(cg, model_, char_embed_, *it));
    return concat({f.h, b.h});
}

Expr
BiLstmCharTagger::buildLoss(ComputationGraph& cg, std::size_t index)
{
    const data::TaggedSentence& s = corpus_.sentence(index);
    std::vector<Expr> xs;
    xs.reserve(s.length());
    for (std::uint32_t w : s.words)
        xs.push_back(embedWord(cg, w));
    return body_.loss(cg, model_, xs, s.tags);
}

} // namespace models

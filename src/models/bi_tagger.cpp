#include "models/bi_tagger.hpp"

namespace models {

using namespace graph;

namespace {

/** A cell state's output: an LSTM carries (h, c), a GRU only h. */
Expr
hiddenOf(const LstmBuilder::State& s)
{
    return s.h;
}

Expr
hiddenOf(Expr h)
{
    return h;
}

} // namespace

template <class Cell>
BiTaggerBody<Cell>::BiTaggerBody(Model& model, std::uint32_t input_dim,
                                 std::uint32_t hidden_dim)
    : fwd_(model, "fwd", input_dim, hidden_dim),
      bwd_(model, "bwd", input_dim, hidden_dim)
{
}

template <class Cell>
void
BiTaggerBody<Cell>::addHead(Model& model, std::uint32_t mlp_dim)
{
    w_mlp_ = model.addWeightMatrix("W_mlp", mlp_dim,
                                   2 * fwd_.hiddenDim());
    b_mlp_ = model.addBias("b_mlp", mlp_dim);
    w_tag_ = model.addWeightMatrix("W_tag", data::NerCorpus::kNumTags,
                                   mlp_dim);
    b_tag_ = model.addBias("b_tag", data::NerCorpus::kNumTags);
}

template <class Cell>
Expr
BiTaggerBody<Cell>::loss(ComputationGraph& cg, const Model& model,
                         const std::vector<Expr>& xs,
                         const std::vector<std::uint32_t>& tags) const
{
    const std::size_t n = xs.size();
    std::vector<Expr> hf(n), hb(n);
    auto f = fwd_.start(cg);
    for (std::size_t i = 0; i < n; ++i) {
        f = fwd_.next(model, f, xs[i]);
        hf[i] = hiddenOf(f);
    }
    auto b = bwd_.start(cg);
    for (std::size_t i = n; i-- > 0;) {
        b = bwd_.next(model, b, xs[i]);
        hb[i] = hiddenOf(b);
    }

    std::vector<Expr> losses;
    losses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Expr z = concat({hf[i], hb[i]});
        Expr m = graph::tanh(matvec(model, w_mlp_, z) +
                             parameter(cg, model, b_mlp_));
        Expr logits = matvec(model, w_tag_, m) +
                      parameter(cg, model, b_tag_);
        losses.push_back(pickNegLogSoftmax(logits, tags[i]));
    }
    return sumLosses(std::move(losses));
}

template <class Cell>
BiRnnTagger<Cell>::BiRnnTagger(const data::NerCorpus& corpus,
                               const data::Vocab& vocab,
                               std::uint32_t embed_dim,
                               std::uint32_t hidden_dim,
                               std::uint32_t mlp_dim,
                               gpusim::Device& device, common::Rng& rng)
    : corpus_(corpus), body_(model_, embed_dim, hidden_dim)
{
    embed_ = model_.addLookup(
        "embed", static_cast<std::uint32_t>(vocab.size()), embed_dim);
    body_.addHead(model_, mlp_dim);
    model_.allocate(device, rng);
}

template <class Cell>
Expr
BiRnnTagger<Cell>::buildLoss(ComputationGraph& cg, std::size_t index)
{
    const data::TaggedSentence& s = corpus_.sentence(index);
    std::vector<Expr> xs;
    xs.reserve(s.length());
    for (std::uint32_t w : s.words)
        xs.push_back(lookup(cg, model_, embed_, w));
    return body_.loss(cg, model_, xs, s.tags);
}

template class BiTaggerBody<LstmBuilder>;
template class BiTaggerBody<GruBuilder>;
template class BiRnnTagger<LstmBuilder>;
template class BiRnnTagger<GruBuilder>;

} // namespace models

#include "models/lstm.hpp"

namespace models {

LstmBuilder::LstmBuilder(graph::Model& model, const std::string& prefix,
                         std::uint32_t input_dim,
                         std::uint32_t hidden_dim)
    : hidden_(hidden_dim)
{
    wx_ = model.addWeightMatrix(prefix + ".Wx", 4 * hidden_dim,
                                input_dim);
    wh_ = model.addWeightMatrix(prefix + ".Wh", 4 * hidden_dim,
                                hidden_dim);
    b_ = model.addBias(prefix + ".b", 4 * hidden_dim);
}

LstmBuilder::State
LstmBuilder::start(graph::ComputationGraph& cg) const
{
    return {graph::input(cg, std::vector<float>(hidden_, 0.0f)),
            graph::input(cg, std::vector<float>(hidden_, 0.0f))};
}

LstmBuilder::State
LstmBuilder::next(const graph::Model& model, const State& prev,
                  graph::Expr x) const
{
    using namespace graph;
    Expr gates = add({matvec(model, wx_, x), matvec(model, wh_, prev.h),
                      parameter(*x.cg, model, b_)});
    const std::uint32_t h = hidden_;
    Expr i = sigmoid(slice(gates, 0, h));
    Expr f = sigmoid(slice(gates, h, h));
    Expr o = sigmoid(slice(gates, 2 * h, h));
    Expr u = graph::tanh(slice(gates, 3 * h, h));
    Expr c = cmult(f, prev.c) + cmult(i, u);
    Expr hh = cmult(o, graph::tanh(c));
    return {hh, c};
}

} // namespace models

/**
 * @file
 * Reusable LSTM cell builder (vanilla LSTM [4]).
 *
 * Registers the cell's parameters (input transform, recurrent
 * transform, bias) in a Model once, and stamps cell applications into
 * per-input computation graphs -- the usage pattern that makes
 * recurrent weight matrices "recurring" and worth caching on chip.
 */
#pragma once

#include <string>

#include "graph/expr.hpp"

namespace models {

/** Builder for a single-layer LSTM. */
class LstmBuilder
{
  public:
    /**
     * Register parameters: Wx (4H x I), Wh (4H x H), b (4H).
     * Must run before Model::allocate().
     */
    LstmBuilder(graph::Model& model, const std::string& prefix,
                std::uint32_t input_dim, std::uint32_t hidden_dim);

    /** Hidden/cell state pair. */
    struct State
    {
        graph::Expr h;
        graph::Expr c;
    };

    /** @return the zero initial state. */
    State start(graph::ComputationGraph& cg) const;

    /** Apply the cell: (h, c) x input -> next (h, c). */
    State next(const graph::Model& model, const State& prev,
               graph::Expr x) const;

    std::uint32_t hiddenDim() const { return hidden_; }

  private:
    graph::ParamId wx_;
    graph::ParamId wh_;
    graph::ParamId b_;
    std::uint32_t hidden_;
};

} // namespace models

/**
 * @file
 * Depth-based on-the-fly batching (DyNet-DB).
 *
 * Implements the depth-based variant of Neubig et al.'s on-the-fly
 * operation batching [9]: nodes are bucketed by their maximum depth
 * from the leaves, and same-signature nodes within a depth bucket are
 * merged into one batched kernel. TF-Fold (fold_executor.hpp) inherits
 * this grouping and adds its own overheads.
 */
#pragma once

#include "exec/executor.hpp"

namespace exec {

/** DyNet with depth-based dynamic batching. */
class DepthBatchExecutor : public Executor
{
  public:
    using Executor::Executor;

    const char* name() const override { return "DyNet-DB"; }

  protected:
    std::vector<std::vector<graph::NodeId>>
    scheduleForward(graph::ComputationGraph& cg,
                    const std::vector<bool>& live) override;

    double scheduleOverheadUs(std::size_t n_nodes,
                              std::size_t n_groups) const override;
};

} // namespace exec

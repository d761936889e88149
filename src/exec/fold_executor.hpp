/**
 * @file
 * TensorFlow-Fold-style baseline (TF-Fold).
 *
 * TensorFlow Fold [17] achieves dynamic batching by rewriting the
 * per-input graphs into a static graph with gather/concat glue and
 * depth-wise merged operations. It schedules exactly like depth-based
 * batching -- it inherits DyNet-DB's level grouping -- but pays (i) a
 * higher per-group host cost for the rewrite machinery, (ii) a fixed
 * per-batch feed/fetch cost, and (iii) an extra gather/scatter glue
 * kernel around each merged operation. Those overheads put it below
 * both DyNet variants in Fig 8, which this executor reproduces.
 */
#pragma once

#include "exec/depth_batch_executor.hpp"

namespace exec {

/** DyNet-DB's grouping plus TF-Fold's rewrite overheads. */
class FoldExecutor : public DepthBatchExecutor
{
  public:
    using DepthBatchExecutor::DepthBatchExecutor;

    const char* name() const override { return "TF-Fold"; }

  protected:
    double scheduleOverheadUs(std::size_t n_nodes,
                              std::size_t n_groups) const override;

    void afterGroup(graph::ComputationGraph& cg,
                    const std::vector<graph::NodeId>& group) override;
};

} // namespace exec

#include "exec/fold_executor.hpp"

namespace exec {

double
FoldExecutor::scheduleOverheadUs(std::size_t n_nodes,
                                 std::size_t n_groups) const
{
    return static_cast<double>(n_nodes) *
               (host_.sched_node_us + host_.batch_marshal_node_us) +
           static_cast<double>(n_groups) * host_.fold_group_us +
           host_.fold_batch_us;
}

void
FoldExecutor::afterGroup(graph::ComputationGraph& cg,
                         const std::vector<graph::NodeId>& group)
{
    // Gather/scatter glue around each merged operation: the rewritten
    // static graph moves the group's operand tensors through
    // tf.gather / tf.concat nodes, an extra kernel that re-reads and
    // re-writes the group's outputs.
    double bytes = 0.0;
    for (graph::NodeId id : group)
        bytes += 4.0 * static_cast<double>(cg.node(id).shape.size());
    gpusim::KernelCost glue;
    glue.dram_load_bytes = bytes;
    glue.dram_store_bytes = bytes;
    glue.parallel_threads = bytes / 4.0;
    device_.addLoad(gpusim::MemSpace::Activations, bytes);
    device_.addStore(gpusim::MemSpace::Activations, bytes);
    device_.launchKernel(glue);
}

} // namespace exec

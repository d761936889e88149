/**
 * @file
 * Shared node placement and kernel execution for graph executors.
 *
 * The baselines run their functional math through
 * computeNodeForward()/computeNodeBackward() and charge per-kernel
 * costs via the group cost functions here. VPPS shares only the
 * buffer placement (placeForward()/placeBackward()): its interpreter
 * runs each instruction's math through vectorPayload() and the
 * tensor:: kernels, and charges per-instruction costs inside the
 * script executor.
 */
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "graph/cgraph.hpp"
#include "graph/model.hpp"

namespace exec {

/**
 * Assign forward buffers to every live node: activations are
 * allocated from the pool, ParamVec leaves alias their parameter's
 * master copy, and Input leaves get their staged data copied in
 * (recorded as a host-to-device transfer).
 *
 * @return the PCIe bytes transferred for inputs.
 */
double placeForward(gpusim::Device& device, graph::Model& model,
                    graph::ComputationGraph& cg,
                    const std::vector<bool>& live);

/**
 * Assign gradient buffers to every live node that needs one (ParamVec
 * leaves alias the parameter gradient), zero parameter gradients, and
 * seed the loss gradient with 1.
 *
 * @return total bytes zero-initialized (the memset kernel's stores).
 */
double placeBackward(gpusim::Device& device, graph::Model& model,
                     graph::ComputationGraph& cg,
                     const std::vector<bool>& live, graph::NodeId loss);

/** Functionally compute one node's forward value (no cost charging). */
void computeNodeForward(gpusim::Device& device, graph::Model& model,
                        graph::ComputationGraph& cg, graph::NodeId id);

/** Functionally accumulate one node's backward contributions. */
void computeNodeBackward(gpusim::Device& device, graph::Model& model,
                         graph::ComputationGraph& cg, graph::NodeId id);

/**
 * Execute a group of same-signature nodes as one batched forward
 * kernel: functional math, cost charging, DRAM traffic recording.
 *
 * @return the kernel duration in us.
 */
double runForwardGroup(gpusim::Device& device, graph::Model& model,
                       graph::ComputationGraph& cg,
                       const std::vector<graph::NodeId>& group);

/**
 * Execute a group's backward as batched kernels (MatVec groups take
 * two kernels: data-gradient GEMM and weight-gradient GEMM).
 *
 * @return the total duration in us.
 */
double runBackwardGroup(gpusim::Device& device, graph::Model& model,
                        graph::ComputationGraph& cg,
                        const std::vector<graph::NodeId>& group);

/**
 * Run SGD updates for all parameters: dense kernels for matrices and
 * biases, sparse row updates for embedding tables (only rows touched
 * by Lookup nodes in @p cg).
 *
 * @return the total duration in us.
 */
double runParameterUpdates(gpusim::Device& device, graph::Model& model,
                           graph::ComputationGraph& cg,
                           const std::vector<bool>& live);

/** @return true if the node launches a kernel in per-node execution
 *  (Input and ParamVec leaves do not). */
bool opLaunchesKernel(graph::OpType op);

} // namespace exec

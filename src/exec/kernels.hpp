/**
 * @file
 * Shared node placement and kernel execution for graph executors.
 *
 * All five systems place buffers with placeForward()/placeBackward()
 * and compute each op through the one lowering of vpps/lowering.hpp.
 * The baselines run it node by node (computeNodeForward(),
 * computeNodeBackward()): vector instructions through
 * vpps::vectorPayload, adding straight into their targets, and matrix
 * products through the whole-matrix tensor:: kernels. They charge
 * per-kernel costs via the group cost functions here. VPPS places the
 * same lowering on its VPPs and charges per-instruction costs inside
 * the script executor.
 */
#pragma once

#include <cstdint>
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

/** Functionally compute one node's forward value (no cost charging):
 *  its lowering, run directly. */
void computeNodeForward(gpusim::Device& device, graph::Model& model,
                        graph::ComputationGraph& cg, graph::NodeId id);

/** Functionally accumulate one node's backward contributions: its
 *  lowering, run directly. */
void computeNodeBackward(gpusim::Device& device, graph::Model& model,
                         graph::ComputationGraph& cg, graph::NodeId id);

/**
 * @return for each parameter, the rows that live Lookup nodes of
 * @p cg read, ascending and each once: the rows the sparse update of
 * an embedding table touches (empty for every other parameter).
 */
std::vector<std::vector<std::uint32_t>>
touchedRows(const graph::Model& model, const graph::ComputationGraph& cg,
            const std::vector<bool>& live);

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

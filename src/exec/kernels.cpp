#include "exec/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "tensor/host_math.hpp"
#include "vpps/lowering.hpp"

namespace exec {

using gpusim::DeviceMemory;
using gpusim::KernelCost;
using gpusim::MemSpace;
using graph::Node;
using graph::NodeId;
using graph::OpType;

bool
opLaunchesKernel(graph::OpType op)
{
    return op != OpType::Input && op != OpType::ParamVec;
}

double
placeForward(gpusim::Device& device, graph::Model& model,
             graph::ComputationGraph& cg, const std::vector<bool>& live)
{
    auto& mem = device.memory();
    double input_bytes = 0.0;
    for (NodeId id = 0; id < cg.size(); ++id) {
        if (!live[id])
            continue;
        Node& n = cg.node(id);
        switch (n.op) {
          case OpType::ParamVec:
            n.fwd = model.param(n.param).value;
            break;
          case OpType::Input: {
            n.fwd = mem.allocate(n.shape.size(), MemSpace::Activations);
            const auto& data = cg.inputData(id);
            if (device.functional())
                std::memcpy(mem.data(n.fwd), data.data(),
                            data.size() * sizeof(float));
            input_bytes += 4.0 * static_cast<double>(data.size());
            break;
          }
          case OpType::PickNLS:
            n.fwd = mem.allocate(n.shape.size(), MemSpace::Activations);
            // Softmax probabilities, needed again by the backward pass.
            n.aux_mem = mem.allocate(cg.node(n.args[0]).shape.size(),
                                     MemSpace::Activations);
            break;
          default:
            n.fwd = mem.allocate(n.shape.size(), MemSpace::Activations);
            break;
        }
    }
    // Input staging travels over PCIe and lands in DRAM.
    device.addStore(MemSpace::Activations, input_bytes);
    return input_bytes;
}

double
placeBackward(gpusim::Device& device, graph::Model& model,
              graph::ComputationGraph& cg, const std::vector<bool>& live,
              graph::NodeId loss)
{
    auto& mem = device.memory();
    double zero_bytes = 0.0;
    for (NodeId id = 0; id < cg.size(); ++id) {
        if (!live[id])
            continue;
        Node& n = cg.node(id);
        if (!graph::opNeedsGrad(n.op))
            continue;
        if (n.op == OpType::ParamVec) {
            n.grad = model.param(n.param).grad;
        } else {
            n.grad = mem.allocate(n.shape.size(), MemSpace::ActGrads);
            zero_bytes += 4.0 * static_cast<double>(n.shape.size());
        }
    }
    // Zero the parameter gradients (they persist across batches).
    for (graph::ParamId pid = 0; pid < model.numParams(); ++pid) {
        auto& p = model.param(pid);
        if (device.functional()) {
            float* g = mem.data(p.grad);
            std::fill(g, g + p.shape.size(), 0.0f);
        }
        zero_bytes += p.bytes();
    }
    // Seed dLoss/dLoss = 1.
    Node& l = cg.node(loss);
    if (l.grad == DeviceMemory::kNullOffset)
        common::panic("placeBackward: loss node has no gradient buffer");
    if (device.functional())
        mem.data(l.grad)[0] = 1.0f;
    return zero_bytes;
}

namespace {

/**
 * Runs a lowered node at once on the whole device, as the baselines'
 * one kernel per op does: vector instructions through
 * vpps::vectorPayload, adding straight into their targets, and each
 * matrix product over the whole matrix.
 */
class DirectSink
{
  public:
    DirectSink(DeviceMemory& mem, const graph::Model& model)
        : mem_(mem), model_(model)
    {
    }

    void group(double) {}

    void
    emit(vpps::Opcode op, std::uint32_t imm,
         std::initializer_list<std::uint32_t> operands)
    {
        vpps::vectorPayload(op, imm, operands.begin(), mem_, *this, model_,
                            true);
    }

    void
    matrix(vpps::Opcode op, graph::ParamId m, std::uint32_t a,
           std::uint32_t b)
    {
        const auto& p = model_.param(m);
        const float* w = mem_.data(p.value);
        const std::size_t rows = p.shape.rows(), cols = p.shape.cols();
        switch (op) {
          case vpps::Opcode::MatVec:
            tensor::gemv(w, mem_.data(a), mem_.data(b), rows, cols);
            break;
          case vpps::Opcode::MatVecT:
            tensor::gemvTransposedAccum(w, mem_.data(a), mem_.data(b),
                                        rows, cols);
            break;
          default: // Outer
            tensor::outerAccum(mem_.data(p.grad), mem_.data(a),
                               mem_.data(b), rows, cols);
        }
    }

    float*
    claim(std::uint32_t target, std::uint32_t)
    {
        return mem_.data(target);
    }

  private:
    DeviceMemory& mem_;
    const graph::Model& model_;
};

} // namespace

void
computeNodeForward(gpusim::Device& device, graph::Model& model,
                   graph::ComputationGraph& cg, graph::NodeId id)
{
    if (!device.functional())
        return;
    DirectSink sink(device.memory(), model);
    vpps::lowerForward(model, cg, cg.node(id), sink);
}

void
computeNodeBackward(gpusim::Device& device, graph::Model& model,
                    graph::ComputationGraph& cg, graph::NodeId id)
{
    if (!device.functional())
        return;
    DirectSink sink(device.memory(), model);
    vpps::lowerBackward(model, cg, cg.node(id), sink);
}

std::vector<std::vector<std::uint32_t>>
touchedRows(const graph::Model& model, const graph::ComputationGraph& cg,
            const std::vector<bool>& live)
{
    std::vector<std::vector<std::uint32_t>> rows(model.numParams());
    for (NodeId id = 0; id < cg.size(); ++id) {
        const Node& n = cg.node(id);
        if (live[id] && n.op == OpType::Lookup)
            rows[n.param].push_back(n.aux);
    }
    for (auto& r : rows) {
        std::sort(r.begin(), r.end());
        r.erase(std::unique(r.begin(), r.end()), r.end());
    }
    return rows;
}

namespace {

/** Cost + traffic of a group executed as one forward kernel. */
KernelCost
groupForwardCost(gpusim::Device& device, const graph::Model& model,
                 const graph::ComputationGraph& cg,
                 const std::vector<NodeId>& group)
{
    KernelCost cost;
    const Node& first = cg.node(group.front());
    const double k = static_cast<double>(group.size());
    const double len = static_cast<double>(first.shape.size());
    switch (first.op) {
      case OpType::MatVec: {
        const auto& p = model.param(first.param);
        const double r = p.shape.rows(), c = p.shape.cols();
        // One GEMM: W loaded once for the whole group (this is the
        // benefit of dynamic batching the paper quantifies in
        // Table I), plus k input vectors and k output vectors.
        cost.flops = 2.0 * r * c * k;
        cost.dram_load_bytes = 4.0 * (r * c + c * k);
        cost.dram_store_bytes = 4.0 * r * k;
        cost.parallel_threads = r * k;
        device.addLoad(p.valueSpace(), 4.0 * r * c);
        device.addLoad(MemSpace::Activations, 4.0 * c * k);
        device.addStore(MemSpace::Activations, 4.0 * r * k);
        break;
      }
      case OpType::Lookup: {
        const auto& p = model.param(first.param);
        cost.dram_load_bytes = 4.0 * len * k;
        cost.dram_store_bytes = 4.0 * len * k;
        cost.parallel_threads = len * k;
        device.addLoad(p.valueSpace(), 4.0 * len * k);
        device.addStore(MemSpace::Activations, 4.0 * len * k);
        break;
      }
      case OpType::AddN:
      case OpType::CwiseMult:
      case OpType::Tanh:
      case OpType::Sigmoid:
      case OpType::Relu:
      case OpType::Scale:
      case OpType::Slice:
      case OpType::Concat:
      case OpType::PickNLS: {
        double in_len = 0.0;
        for (NodeId a : first.args)
            in_len += static_cast<double>(cg.node(a).shape.size());
        const double flops_per_elem =
            (first.op == OpType::Tanh || first.op == OpType::Sigmoid ||
             first.op == OpType::PickNLS)
                ? 10.0
                : 1.0;
        const double out_len =
            first.op == OpType::PickNLS ? in_len + 1.0 : len;
        cost.flops = flops_per_elem * std::max(in_len, len) * k;
        cost.dram_load_bytes = 4.0 * in_len * k;
        cost.dram_store_bytes = 4.0 * out_len * k;
        cost.parallel_threads = std::max(in_len, len) * k;
        device.addLoad(MemSpace::Activations, cost.dram_load_bytes);
        device.addStore(MemSpace::Activations, cost.dram_store_bytes);
        break;
      }
      default:
        common::panic("groupForwardCost: unexpected op ",
                      graph::opName(first.op));
    }
    return cost;
}

} // namespace

double
runForwardGroup(gpusim::Device& device, graph::Model& model,
                graph::ComputationGraph& cg,
                const std::vector<NodeId>& group)
{
    for (NodeId id : group)
        computeNodeForward(device, model, cg, id);
    const KernelCost cost = groupForwardCost(device, model, cg, group);
    return device.launchKernel(cost);
}

double
runBackwardGroup(gpusim::Device& device, graph::Model& model,
                 graph::ComputationGraph& cg,
                 const std::vector<NodeId>& group)
{
    for (auto it = group.rbegin(); it != group.rend(); ++it)
        computeNodeBackward(device, model, cg, *it);

    const Node& first = cg.node(group.front());
    const double k = static_cast<double>(group.size());
    double total_us = 0.0;
    if (first.op == OpType::MatVec) {
        const auto& p = model.param(first.param);
        const double r = p.shape.rows(), c = p.shape.cols();
        // Kernel 1: dx += W^T [dy...] -- loads W again.
        KernelCost dgrad;
        dgrad.flops = 2.0 * r * c * k;
        dgrad.dram_load_bytes = 4.0 * (r * c + r * k);
        dgrad.dram_store_bytes = 4.0 * c * k;
        dgrad.parallel_threads = c * k;
        device.addLoad(p.valueSpace(), 4.0 * r * c);
        device.addLoad(MemSpace::ActGrads, 4.0 * r * k);
        device.addStore(MemSpace::ActGrads, 4.0 * c * k);
        total_us += device.launchKernel(dgrad);
        // Kernel 2: dW += [dy...][x...]^T -- read-modify-write dW.
        KernelCost wgrad;
        wgrad.flops = 2.0 * r * c * k;
        wgrad.dram_load_bytes = 4.0 * (r * k + c * k + r * c);
        wgrad.dram_store_bytes = 4.0 * r * c;
        wgrad.parallel_threads = r * c;
        device.addLoad(MemSpace::ActGrads, 4.0 * r * k);
        device.addLoad(MemSpace::Activations, 4.0 * c * k);
        device.addLoad(p.gradSpace(), 4.0 * r * c);
        device.addStore(p.gradSpace(), 4.0 * r * c);
        total_us += device.launchKernel(wgrad);
    } else if (first.op == OpType::Lookup) {
        const auto& p = model.param(first.param);
        const double len = static_cast<double>(first.shape.size());
        KernelCost scatter;
        scatter.dram_load_bytes = 4.0 * len * k;
        scatter.atomic_ops = len * k;
        scatter.parallel_threads = len * k;
        device.addLoad(MemSpace::ActGrads, 4.0 * len * k);
        device.addStore(p.gradSpace(), 4.0 * len * k);
        device.traffic().addAtomics(len * k);
        total_us += device.launchKernel(scatter);
    } else {
        // Element-wise backward: symmetric to the forward cost.
        double in_len = 0.0;
        for (NodeId a : first.args)
            in_len += static_cast<double>(cg.node(a).shape.size());
        const double out_len = static_cast<double>(first.shape.size());
        KernelCost bwd;
        bwd.flops = 2.0 * std::max(in_len, out_len) * k;
        bwd.dram_load_bytes = 4.0 * (out_len + in_len) * k;
        bwd.dram_store_bytes = 4.0 * in_len * k;
        bwd.parallel_threads = std::max(in_len, out_len) * k;
        device.addLoad(MemSpace::ActGrads, 4.0 * out_len * k);
        device.addLoad(MemSpace::Activations, 4.0 * in_len * k);
        device.addStore(MemSpace::ActGrads, 4.0 * in_len * k);
        total_us += device.launchKernel(bwd);
    }
    return total_us;
}

double
runParameterUpdates(gpusim::Device& device, graph::Model& model,
                    graph::ComputationGraph& cg,
                    const std::vector<bool>& live)
{
    auto& mem = device.memory();
    const float lr = model.learning_rate;
    const float wd = model.weight_decay;
    double total_us = 0.0;

    // Rows of each embedding table touched this batch (sparse update).
    const auto touched = touchedRows(model, cg, live);

    for (graph::ParamId pid = 0; pid < model.numParams(); ++pid) {
        auto& p = model.param(pid);
        if (p.kind == graph::Parameter::Kind::Lookup) {
            const std::size_t dim = p.shape.cols();
            if (touched[pid].empty())
                continue;
            if (device.functional()) {
                for (std::uint32_t row : touched[pid]) {
                    float* v = mem.data(p.value) + row * dim;
                    float* g = mem.data(p.grad) + row * dim;
                    tensor::sgdUpdate(v, g, dim, lr, wd);
                }
            }
            const double bytes =
                4.0 * static_cast<double>(dim) * touched[pid].size();
            KernelCost cost;
            cost.dram_load_bytes = 2.0 * bytes;
            cost.dram_store_bytes = bytes;
            cost.parallel_threads =
                static_cast<double>(dim) * touched[pid].size();
            device.addLoad(p.valueSpace(), bytes);
            device.addLoad(p.gradSpace(), bytes);
            device.addStore(p.valueSpace(), bytes);
            total_us += device.launchKernel(cost);
        } else {
            if (device.functional())
                tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad),
                                  p.shape.size(), lr, wd);
            KernelCost cost;
            cost.dram_load_bytes = 2.0 * p.bytes();
            cost.dram_store_bytes = p.bytes();
            cost.parallel_threads = static_cast<double>(p.shape.size());
            device.addLoad(p.valueSpace(), p.bytes());
            device.addLoad(p.gradSpace(), p.bytes());
            device.addStore(p.valueSpace(), p.bytes());
            total_us += device.launchKernel(cost);
        }
    }
    return total_us;
}

} // namespace exec

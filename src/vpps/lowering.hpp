/**
 * @file
 * Each graph op's math, written once for all five systems
 * (DESIGN.md section 4.2).
 *
 * lowerForward() and lowerBackward() turn one node into the
 * instructions that compute it, in order, and place none of them:
 * each is an opcode, an immediate, its operand words and the load it
 * adds to the VPP that runs it. A sink decides where each runs, with
 * three members:
 *
 * - `group(load)` starts a group: the vector instructions emitted
 *   until the next group run on one VPP, which they load by `load`.
 *   A forward AddN (Add3 or Add2, then an Accum per further argument)
 *   and a forward Concat (one Copy per argument) are one group each;
 *   every other vector instruction is a group of one.
 * - `emit(op, imm, {operands})` appends one vector instruction to the
 *   group.
 * - `matrix(op, m, a, b)` is a MatVec, MatVecT or Outer of weight
 *   matrix `m` with operands (a, b), to fan out over every VPP that
 *   caches rows of `m` (of its gradient, for Outer).
 *
 * The script generator's sink places the instructions on VPPs
 * (script_gen.cpp). The baselines' sink runs them on the spot, in the
 * baselines' own node order: vector instructions through
 * vectorPayload(), adding straight into their targets, and matrix
 * products over the whole matrix (exec/kernels.cpp).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "common/logging.hpp"
#include "graph/cgraph.hpp"
#include "graph/model.hpp"
#include "tensor/host_math.hpp"
#include "vpps/isa.hpp"

namespace vpps {

/**
 * The float math of one imm-length instruction on a functional
 * device, for every system. The `+=` family adds into the @p n floats
 * that `acc.claim(target, n)` returns in place of those at pool offset
 * `target`: zeroed per-VPP scratch that the interpreter adds onto the
 * target at the phase boundary, so VPPs that share a target within a
 * phase never race, or, for the baselines, which run one node at a
 * time, the target itself. With @p apply_updates false, UpdateVec
 * leaves the parameter and its gradient untouched.
 */
template <class Acc>
void
vectorPayload(Opcode op, std::uint32_t n, const std::uint32_t* w,
              gpusim::DeviceMemory& mem, Acc& acc,
              const graph::Model& model, bool apply_updates)
{
    auto at = [&](int i) { return mem.data(w[i]); };
    auto factor = [&](int i) {
        float f;
        std::memcpy(&f, &w[i], sizeof(f));
        return f;
    };
    switch (op) {
      case Opcode::Copy:
        std::memcpy(at(0), at(1), static_cast<std::size_t>(n) *
                                      sizeof(float));
        break;
      case Opcode::Accum:
      case Opcode::AccumParam:
        tensor::accum(acc.claim(w[0], n), at(1), n);
        break;
      case Opcode::Add2: {
        const float* ins[2] = {at(1), at(2)};
        tensor::addN(ins, 2, at(0), n);
        break;
      }
      case Opcode::Add3: {
        const float* ins[3] = {at(1), at(2), at(3)};
        tensor::addN(ins, 3, at(0), n);
        break;
      }
      case Opcode::Mul:
        tensor::cwiseMult(at(1), at(2), at(0), n);
        break;
      case Opcode::MulAccum: {
        float* out = acc.claim(w[0], n);
        const float* a = at(1);
        const float* b = at(2);
        for (std::uint32_t i = 0; i < n; ++i)
            out[i] += a[i] * b[i];
        break;
      }
      case Opcode::Tanh:
        tensor::tanhForward(at(1), at(0), n);
        break;
      case Opcode::Sigmoid:
        tensor::sigmoidForward(at(1), at(0), n);
        break;
      case Opcode::Relu:
        tensor::reluForward(at(1), at(0), n);
        break;
      case Opcode::Scale:
        tensor::scaleForward(at(1), factor(2), at(0), n);
        break;
      case Opcode::ScaleAccum:
        tensor::scaleAccum(at(1), factor(2), acc.claim(w[0], n), n);
        break;
      case Opcode::TanhBack:
        tensor::tanhBackward(at(1), at(2), acc.claim(w[0], n), n);
        break;
      case Opcode::SigmoidBack:
        tensor::sigmoidBackward(at(1), at(2), acc.claim(w[0], n), n);
        break;
      case Opcode::ReluBack:
        tensor::reluBackward(at(1), at(2), acc.claim(w[0], n), n);
        break;
      case Opcode::PickNLS:
        at(2)[0] = tensor::pickNegLogSoftmax(at(0), w[3], at(1), n);
        break;
      case Opcode::PickNLSBack:
        tensor::pickNegLogSoftmaxBackward(at(0), w[3], at(1)[0],
                                          acc.claim(w[2], n), n);
        break;
      case Opcode::UpdateVec:
        // Gradient-only mode leaves the parameter and its grad
        // untouched (data-parallel training applies the all-reduced
        // update itself); the cost is charged either way so timing
        // does not depend on the mode.
        if (apply_updates)
            tensor::sgdUpdate(at(0), at(1), n, model.learning_rate,
                              model.weight_decay);
        break;
      default:
        break; // Nop
    }
}

/** Lower node @p n's forward pass into @p sink. */
template <class Sink>
void
lowerForward(const graph::Model& model, const graph::ComputationGraph& cg,
             const graph::Node& n, Sink& sink)
{
    using graph::OpType;
    const auto len = static_cast<std::uint32_t>(n.shape.size());
    // A forward node loads its VPP by its length times its arguments.
    const double load = static_cast<double>(n.shape.size()) *
                        std::max<std::size_t>(n.args.size(), 1);
    auto arg = [&](std::size_t i) { return cg.node(n.args[i]).fwd; };
    auto vec = [&](Opcode op, std::initializer_list<std::uint32_t> w) {
        sink.group(load);
        sink.emit(op, len, w);
    };
    switch (n.op) {
      case OpType::Input:
      case OpType::ParamVec:
        break; // staged or aliased by placement
      case OpType::Lookup: {
        const auto& p = model.param(n.param);
        vec(Opcode::Copy, {n.fwd, p.value + n.aux * p.shape.cols()});
        break;
      }
      case OpType::MatVec:
        sink.matrix(Opcode::MatVec, n.param, arg(0), n.fwd);
        break;
      case OpType::AddN: {
        // Summed left to right from zero, as tensor::addN sums.
        sink.group(load);
        if (n.args.size() >= 3)
            sink.emit(Opcode::Add3, len, {n.fwd, arg(0), arg(1), arg(2)});
        else
            sink.emit(Opcode::Add2, len, {n.fwd, arg(0), arg(1)});
        for (std::size_t i = 3; i < n.args.size(); ++i)
            sink.emit(Opcode::Accum, len, {n.fwd, arg(i)});
        break;
      }
      case OpType::CwiseMult:
        vec(Opcode::Mul, {n.fwd, arg(0), arg(1)});
        break;
      case OpType::Tanh:
        vec(Opcode::Tanh, {n.fwd, arg(0)});
        break;
      case OpType::Sigmoid:
        vec(Opcode::Sigmoid, {n.fwd, arg(0)});
        break;
      case OpType::Relu:
        vec(Opcode::Relu, {n.fwd, arg(0)});
        break;
      case OpType::Scale:
        vec(Opcode::Scale, {n.fwd, arg(0), n.aux});
        break;
      case OpType::Slice:
        vec(Opcode::Copy, {n.fwd, arg(0) + n.aux});
        break;
      case OpType::Concat: {
        sink.group(load);
        std::uint32_t pos = 0;
        for (std::size_t i = 0; i < n.args.size(); ++i) {
            const auto part =
                static_cast<std::uint32_t>(cg.node(n.args[i]).shape.size());
            sink.emit(Opcode::Copy, part, {n.fwd + pos, arg(i)});
            pos += part;
        }
        break;
      }
      case OpType::PickNLS: {
        const graph::Node& logits = cg.node(n.args[0]);
        sink.group(load);
        sink.emit(Opcode::PickNLS,
                  static_cast<std::uint32_t>(logits.shape.size()),
                  {logits.fwd, n.aux_mem, n.fwd, n.aux});
        break;
      }
      default:
        common::panic("lowerForward: unhandled op ",
                      graph::opName(n.op));
    }
}

/** Lower node @p n's backward pass into @p sink: its contributions to
 *  its arguments' gradients and, for a MatVec, to dW. */
template <class Sink>
void
lowerBackward(const graph::Model& model,
              const graph::ComputationGraph& cg, const graph::Node& n,
              Sink& sink)
{
    using graph::OpType;
    const auto len = static_cast<std::uint32_t>(n.shape.size());
    // A backward instruction loads its VPP by its length, or by twice
    // that when it reads two vectors besides its target.
    auto vec = [&](Opcode op, std::uint32_t imm,
                   std::initializer_list<std::uint32_t> w, double load) {
        sink.group(load);
        sink.emit(op, imm, w);
    };
    auto grad = [&](graph::NodeId a) { return cg.node(a).grad; };
    auto has_grad = [&](graph::NodeId a) {
        return grad(a) != gpusim::DeviceMemory::kNullOffset;
    };
    // A parameter vector's gradient is a parameter gradient.
    auto accum_op = [&](graph::NodeId a) {
        return cg.node(a).op == OpType::ParamVec ? Opcode::AccumParam
                                                 : Opcode::Accum;
    };
    switch (n.op) {
      case OpType::Input:
      case OpType::ParamVec:
        break;
      case OpType::Lookup: {
        const auto& p = model.param(n.param);
        vec(Opcode::AccumParam, len,
            {p.grad + n.aux * p.shape.cols(), n.grad}, len);
        break;
      }
      case OpType::MatVec: {
        const graph::Node& x = cg.node(n.args[0]);
        if (has_grad(n.args[0]))
            sink.matrix(Opcode::MatVecT, n.param, n.grad, x.grad);
        sink.matrix(Opcode::Outer, n.param, n.grad, x.fwd);
        break;
      }
      case OpType::AddN:
        for (graph::NodeId a : n.args)
            if (has_grad(a))
                vec(accum_op(a), len, {grad(a), n.grad}, len);
        break;
      case OpType::CwiseMult: {
        const graph::NodeId a = n.args[0], b = n.args[1];
        if (has_grad(a))
            vec(Opcode::MulAccum, len,
                {grad(a), n.grad, cg.node(b).fwd}, 2.0 * len);
        if (has_grad(b))
            vec(Opcode::MulAccum, len,
                {grad(b), n.grad, cg.node(a).fwd}, 2.0 * len);
        break;
      }
      case OpType::Tanh:
      case OpType::Sigmoid:
      case OpType::Relu: {
        const graph::NodeId a = n.args[0];
        const Opcode op = n.op == OpType::Tanh ? Opcode::TanhBack
                          : n.op == OpType::Sigmoid
                              ? Opcode::SigmoidBack
                              : Opcode::ReluBack;
        if (has_grad(a))
            vec(op, len, {grad(a), n.fwd, n.grad}, 2.0 * len);
        break;
      }
      case OpType::Scale:
        if (has_grad(n.args[0]))
            vec(Opcode::ScaleAccum, len, {grad(n.args[0]), n.grad, n.aux},
                len);
        break;
      case OpType::Slice:
        if (has_grad(n.args[0]))
            vec(Opcode::Accum, len, {grad(n.args[0]) + n.aux, n.grad},
                len);
        break;
      case OpType::Concat: {
        std::uint32_t pos = 0;
        for (graph::NodeId a : n.args) {
            const auto part =
                static_cast<std::uint32_t>(cg.node(a).shape.size());
            if (has_grad(a))
                vec(accum_op(a), part, {grad(a), n.grad + pos}, part);
            pos += part;
        }
        break;
      }
      case OpType::PickNLS: {
        const graph::Node& logits = cg.node(n.args[0]);
        const auto classes =
            static_cast<std::uint32_t>(logits.shape.size());
        if (has_grad(n.args[0]))
            vec(Opcode::PickNLSBack, classes,
                {n.aux_mem, n.grad, logits.grad, n.aux}, classes);
        break;
      }
      default:
        common::panic("lowerBackward: unhandled op ",
                      graph::opName(n.op));
    }
}

} // namespace vpps

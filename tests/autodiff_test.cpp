/**
 * @file
 * Whole-graph gradient checking: every parameter gradient produced by
 * the backward pass must match central finite differences of the
 * loss, on a composite graph that exercises every op type (matvec,
 * lookup, bias, add, cmult, tanh/sigmoid/relu, scale, slice, concat,
 * pickneglogsoftmax). This validates the autodiff rules end to end,
 * independent of any execution strategy.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "exec/kernels.hpp"
#include "graph/expr.hpp"
#include "graph/level_sort.hpp"

namespace {

struct DiffRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 4u << 20};
    graph::Model model;
    graph::ParamId w_a, w_b, bias, table;

    DiffRig()
    {
        w_a = model.addWeightMatrix("A", 6, 5);
        w_b = model.addWeightMatrix("B", 4, 6);
        bias = model.addBias("b", 6);
        table = model.addLookup("E", 7, 5);
        common::Rng rng(71);
        model.allocate(device, rng);
    }

    /** Composite expression using every differentiable op, with
     *  sums of two, three and five arguments (the lowering's Add2,
     *  Add3, and Add3 followed by Accums). */
    graph::Expr
    build(graph::ComputationGraph& cg)
    {
        using namespace graph;
        Expr e = lookup(cg, model, table, 3);
        Expr x = input(cg, {0.3f, -0.2f, 0.8f, 0.1f, -0.5f});
        Expr mixed = add({e, x});
        Expr h = graph::tanh(add({matvec(model, w_a, mixed),
                                  parameter(cg, model, bias),
                                  matvec(model, w_a, e)}));
        Expr g = sigmoid(scale(h, 1.7f));
        Expr prod = cmult(h, g);
        Expr lo = slice(prod, 0, 3);
        Expr hi = slice(prod, 3, 3);
        Expr re = relu(concat({hi, lo}));
        Expr logits = add({matvec(model, w_b, re), matvec(model, w_b, h),
                           slice(prod, 1, 4), matvec(model, w_b, g),
                           slice(mixed, 1, 4)});
        return pickNegLogSoftmax(logits, 2);
    }

    /** Forward-only loss evaluation at the current parameters. */
    float
    evaluate()
    {
        auto& mem = device.memory();
        const auto mark = mem.mark();
        graph::ComputationGraph cg;
        auto loss = build(cg);
        const auto live = graph::reachableFrom(cg, loss.id);
        exec::placeForward(device, model, cg, live);
        for (graph::NodeId id = 0; id < cg.size(); ++id)
            if (live[id])
                exec::computeNodeForward(device, model, cg, id);
        const float value = mem.data(cg.node(loss.id).fwd)[0];
        mem.resetTo(mark);
        return value;
    }

    /** One full backward pass populating parameter gradients. */
    void
    backward()
    {
        auto& mem = device.memory();
        const auto mark = mem.mark();
        graph::ComputationGraph cg;
        auto loss = build(cg);
        const auto live = graph::reachableFrom(cg, loss.id);
        exec::placeForward(device, model, cg, live);
        for (graph::NodeId id = 0; id < cg.size(); ++id)
            if (live[id])
                exec::computeNodeForward(device, model, cg, id);
        exec::placeBackward(device, model, cg, live, loss.id);
        for (graph::NodeId id = cg.size(); id-- > 0;)
            if (live[id])
                exec::computeNodeBackward(device, model, cg, id);
        mem.resetTo(mark);
    }
};

class ParamGradientTest : public testing::TestWithParam<int>
{
};

TEST_P(ParamGradientTest, MatchesCentralFiniteDifferences)
{
    DiffRig rig;
    rig.backward();

    const auto pid = static_cast<graph::ParamId>(GetParam());
    auto& p = rig.model.param(pid);
    auto& mem = rig.device.memory();
    const float* analytic = mem.data(p.grad);
    float* values = mem.data(p.value);

    const float eps = 1e-3f;
    std::size_t checked = 0;
    // Stride through the parameter so the test stays fast but still
    // samples every region of the tensor.
    const std::size_t stride =
        std::max<std::size_t>(1, p.shape.size() / 24);
    for (std::size_t i = 0; i < p.shape.size(); i += stride) {
        const float saved = values[i];
        values[i] = saved + eps;
        const float up = rig.evaluate();
        values[i] = saved - eps;
        const float down = rig.evaluate();
        values[i] = saved;
        const float fd = (up - down) / (2 * eps);
        EXPECT_NEAR(analytic[i], fd, 5e-3 + 0.02 * std::abs(fd))
            << rig.model.param(pid).name << "[" << i << "]";
        ++checked;
    }
    EXPECT_GT(checked, 4u);
}

std::string
paramName(const testing::TestParamInfo<int>& info)
{
    switch (info.param) {
      case 0: return "MatrixA";
      case 1: return "MatrixB";
      case 2: return "Bias";
      default: return "Embedding";
    }
}

INSTANTIATE_TEST_SUITE_P(AllParams, ParamGradientTest,
                         testing::Values(0, 1, 2, 3), paramName);

TEST(ScaleOp, ForwardAndBackwardSemantics)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 1u << 20);
    graph::Model model;
    auto w = model.addWeightMatrix("W", 3, 3);
    common::Rng rng(72);
    model.allocate(device, rng);

    graph::ComputationGraph cg;
    auto x = graph::input(cg, {1.0f, 2.0f, 3.0f});
    auto y = graph::scale(x, -2.5f);
    auto m = graph::matvec(model, w, y);
    auto loss = graph::pickNegLogSoftmax(m, 0);
    const auto live = graph::reachableFrom(cg, loss.id);
    exec::placeForward(device, model, cg, live);
    for (graph::NodeId id = 0; id < cg.size(); ++id)
        exec::computeNodeForward(device, model, cg, id);
    const float* out = device.memory().data(cg.node(y.id).fwd);
    EXPECT_FLOAT_EQ(out[0], -2.5f);
    EXPECT_FLOAT_EQ(out[1], -5.0f);
    EXPECT_FLOAT_EQ(out[2], -7.5f);
}

TEST(ScaleOp, AverageIsSumOverCount)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 1u << 20);
    graph::Model model;
    common::Rng rng(73);
    model.allocate(device, rng);

    graph::ComputationGraph cg;
    auto a = graph::input(cg, {2.0f, 4.0f});
    auto b = graph::input(cg, {4.0f, 8.0f});
    auto avg = graph::average({a, b});
    const auto live = std::vector<bool>(cg.size(), true);
    exec::placeForward(device, model, cg, live);
    for (graph::NodeId id = 0; id < cg.size(); ++id)
        exec::computeNodeForward(device, model, cg, id);
    const float* out = device.memory().data(cg.node(avg.id).fwd);
    EXPECT_FLOAT_EQ(out[0], 3.0f);
    EXPECT_FLOAT_EQ(out[1], 6.0f);
}

TEST(ScaleOp, DifferentConstantsDoNotBatch)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 1u << 20);
    graph::Model model;
    common::Rng rng(74);
    model.allocate(device, rng);
    graph::ComputationGraph cg;
    auto x = graph::input(cg, {1.0f, 2.0f});
    auto s1 = graph::scale(x, 0.5f);
    auto s2 = graph::scale(x, 0.25f);
    auto s3 = graph::scale(x, 0.5f);
    EXPECT_NE(graph::batchSignature(cg.node(s1.id)),
              graph::batchSignature(cg.node(s2.id)));
    EXPECT_EQ(graph::batchSignature(cg.node(s1.id)),
              graph::batchSignature(cg.node(s3.id)));
}

} // namespace

/**
 * @file
 * Direct unit tests of the VPP interpreter: hand-encoded scripts are
 * executed through ScriptExecutor and the resulting memory contents,
 * timings, and barrier behaviour are checked opcode by opcode --
 * independent of the script generator.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "vpps/script_cache.hpp"
#include "vpps/script_exec.hpp"

namespace {

using gpusim::DeviceMemory;
using vpps::Opcode;

/** Fixture: a device, a one-matrix model (plus, on request, a bias),
 *  and a compiled kernel. */
struct InterpRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 4u << 20};
    graph::Model model;
    graph::ParamId w;
    graph::ParamId bias = graph::kNoParam;
    vpps::CompiledKernel kernel;
    graph::ComputationGraph cg;
    graph::NodeId loss_node;

    explicit InterpRig(bool with_bias = false, std::uint32_t rows = 8,
                       std::uint32_t cols = 4)
    {
        w = model.addWeightMatrix("W", rows, cols);
        if (with_bias)
            bias = model.addBias("b", 8);
        common::Rng rng(111);
        model.allocate(device, rng);
        vpps::VppsOptions opts;
        auto plan = vpps::DistributionPlan::buildAuto(
            model, device.spec(), opts, 2);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model, plan);
        // A placeholder loss node so RunResult.loss has a source.
        loss_node = cg.addInput({0.0f});
        cg.node(loss_node).fwd =
            device.memory().allocate(1, gpusim::MemSpace::Activations);
    }

    /** Allocate a vector and fill it with the given values. */
    DeviceMemory::Offset
    vec(std::initializer_list<float> values)
    {
        auto off = device.memory().allocate(
            values.size(), gpusim::MemSpace::Activations);
        float* p = device.memory().data(off);
        std::size_t i = 0;
        for (float v : values)
            p[i++] = v;
        return off;
    }

    const float* at(DeviceMemory::Offset off)
    {
        return device.memory().data(off);
    }

    common::Result<vpps::RunResult>
    tryRun(vpps::GeneratedBatch& batch, int threads = 0,
           bool apply_updates = true)
    {
        batch.loss_node = loss_node;
        batch.script.seal();
        vpps::ScriptExecutor executor(device, threads);
        return executor.run(kernel, batch, model, cg, apply_updates);
    }

    vpps::RunResult
    run(vpps::GeneratedBatch& batch)
    {
        return tryRun(batch).value();
    }

    vpps::GeneratedBatch
    fresh()
    {
        return vpps::GeneratedBatch(kernel.plan.numVpps());
    }
};

TEST(Interpreter, CopyAndAccum)
{
    InterpRig rig;
    const auto src = rig.vec({1, 2, 3});
    const auto dst = rig.vec({0, 0, 0});
    const auto acc = rig.vec({10, 20, 30});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Copy, 3, {dst, src});
    batch.script.emit(1, vpps::Opcode::Accum, 3, {acc, src});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(dst)[0], 1.0f);
    EXPECT_FLOAT_EQ(rig.at(dst)[2], 3.0f);
    EXPECT_FLOAT_EQ(rig.at(acc)[0], 11.0f);
    EXPECT_FLOAT_EQ(rig.at(acc)[2], 33.0f);
}

TEST(Interpreter, AddsAndMuls)
{
    InterpRig rig;
    const auto a = rig.vec({1, 2});
    const auto b = rig.vec({10, 20});
    const auto c = rig.vec({100, 200});
    const auto sum2 = rig.vec({0, 0});
    const auto sum3 = rig.vec({0, 0});
    const auto prod = rig.vec({0, 0});
    const auto fma = rig.vec({5, 5});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Add2, 2, {sum2, a, b});
    batch.script.emit(0, vpps::Opcode::Add3, 2, {sum3, a, b, c});
    batch.script.emit(0, vpps::Opcode::Mul, 2, {prod, a, b});
    batch.script.emit(0, vpps::Opcode::MulAccum, 2, {fma, a, b});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(sum2)[1], 22.0f);
    EXPECT_FLOAT_EQ(rig.at(sum3)[1], 222.0f);
    EXPECT_FLOAT_EQ(rig.at(prod)[1], 40.0f);
    EXPECT_FLOAT_EQ(rig.at(fma)[0], 15.0f);
}

TEST(Interpreter, ActivationsForwardAndBackward)
{
    InterpRig rig;
    const auto in = rig.vec({0.5f, -0.5f});
    const auto y_tanh = rig.vec({0, 0});
    const auto y_sig = rig.vec({0, 0});
    const auto y_relu = rig.vec({0, 0});
    const auto dout = rig.vec({1, 1});
    const auto din = rig.vec({0, 0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Tanh, 2, {y_tanh, in});
    batch.script.emit(0, vpps::Opcode::Sigmoid, 2, {y_sig, in});
    batch.script.emit(0, vpps::Opcode::Relu, 2, {y_relu, in});
    batch.script.emit(0, vpps::Opcode::TanhBack, 2,
                      {din, y_tanh, dout});
    rig.run(batch);
    EXPECT_NEAR(rig.at(y_tanh)[0], std::tanh(0.5f), 1e-6);
    EXPECT_NEAR(rig.at(y_sig)[1], 1.0f / (1.0f + std::exp(0.5f)),
                1e-6);
    EXPECT_FLOAT_EQ(rig.at(y_relu)[0], 0.5f);
    EXPECT_FLOAT_EQ(rig.at(y_relu)[1], 0.0f);
    const float t = std::tanh(0.5f);
    EXPECT_NEAR(rig.at(din)[0], 1.0f - t * t, 1e-6);
}

TEST(Interpreter, ScaleUsesOperandFloatBits)
{
    InterpRig rig;
    const auto in = rig.vec({2, 4});
    const auto out = rig.vec({0, 0});
    const float factor = -1.5f;
    std::uint32_t bits;
    std::memcpy(&bits, &factor, sizeof(bits));
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Scale, 2, {out, in, bits});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(out)[0], -3.0f);
    EXPECT_FLOAT_EQ(rig.at(out)[1], -6.0f);
}

TEST(Interpreter, MatVecUsesPerVppRowSlices)
{
    InterpRig rig;
    // W is 8x4; fill it with a known pattern: W[r][c] = r + 1.
    float* wdata = rig.device.memory().data(rig.model.param(rig.w).value);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 4; ++c)
            wdata[r * 4 + c] = static_cast<float>(r + 1);
    const auto x = rig.vec({1, 1, 1, 1});
    const auto y = rig.vec({0, 0, 0, 0, 0, 0, 0, 0});
    auto batch = rig.fresh();
    // Emit the matvec on every VPP holding rows, as the generator
    // would; rows not held by a VPP must be left for the others.
    for (int vpp : rig.kernel.plan.vppsOf(rig.w, false))
        batch.script.emit(vpp, vpps::Opcode::MatVec, rig.w, {x, y});
    rig.run(batch);
    for (int r = 0; r < 8; ++r)
        EXPECT_FLOAT_EQ(rig.at(y)[r], 4.0f * (r + 1))
            << "row " << r;
}

TEST(Interpreter, SignalWaitOrdersCrossVppDataflow)
{
    InterpRig rig;
    const auto a = rig.vec({7, 7});
    const auto b = rig.vec({0, 0});
    const auto c = rig.vec({0, 0});
    auto batch = rig.fresh();
    // VPP 5 produces b from a, signals; VPP 9 waits, consumes b.
    batch.script.emit(5, vpps::Opcode::Copy, 2, {b, a});
    batch.script.emit(5, vpps::Opcode::Signal, 0, {});
    batch.script.emit(9, vpps::Opcode::Wait, 0, {});
    batch.script.emit(9, vpps::Opcode::Add2, 2, {c, b, b});
    batch.script.setExpectedSignals(0, 1);
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(c)[0], 14.0f);
}

TEST(Interpreter, WaitingVppResumesAfterSignaler)
{
    InterpRig rig;
    const auto big_src = rig.device.memory().allocate(
        4096, gpusim::MemSpace::Activations);
    const auto big_dst = rig.device.memory().allocate(
        4096, gpusim::MemSpace::Activations);
    auto batch = rig.fresh();
    // VPP 0 does a slow copy then signals; VPP 1 only waits.
    batch.script.emit(0, vpps::Opcode::Copy, 4096,
                      {big_dst, big_src});
    batch.script.emit(0, vpps::Opcode::Signal, 0, {});
    batch.script.emit(1, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 1);
    const auto result = rig.run(batch);
    // The makespan includes VPP 1's wait past VPP 0's work.
    EXPECT_GT(result.makespan_us,
              rig.device.spec().barrier_wait_us);
}

TEST(Interpreter, UpdateVecAppliesSgdInKernel)
{
    InterpRig rig;
    rig.model.learning_rate = 0.5f;
    rig.model.weight_decay = 0.0f;
    const auto p = rig.vec({1.0f, 2.0f});
    const auto g = rig.vec({0.2f, 0.4f});
    auto batch = rig.fresh();
    batch.script.emit(3, vpps::Opcode::UpdateVec, 2, {p, g});
    rig.run(batch);
    EXPECT_FLOAT_EQ(rig.at(p)[0], 0.9f);
    EXPECT_FLOAT_EQ(rig.at(p)[1], 1.8f);
    EXPECT_FLOAT_EQ(rig.at(g)[0], 0.0f) << "gradient cleared";
}

TEST(Interpreter, PickNlsRoundTrip)
{
    InterpRig rig;
    const auto logits = rig.vec({0.0f, 1.0f, 0.0f});
    const auto probs = rig.vec({0, 0, 0});
    const auto loss = rig.vec({0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::PickNLS, 3,
                      {logits, probs, loss, 1});
    rig.run(batch);
    EXPECT_GT(rig.at(probs)[1], rig.at(probs)[0]);
    EXPECT_NEAR(rig.at(probs)[0] + rig.at(probs)[1] +
                    rig.at(probs)[2],
                1.0f, 1e-5);
    EXPECT_NEAR(rig.at(loss)[0], -std::log(rig.at(probs)[1]), 1e-5);
}

TEST(Interpreter, UnreadyWaitIsAStructuredErrorNotAHang)
{
    // A Wait on a barrier that can never be satisfied (the script
    // emits zero of the two declared signals) used to panic the
    // process; decode-time validation now rejects it with full
    // diagnostics and the interpreter never runs.
    InterpRig rig;
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 2); // never satisfied
    const auto result = rig.tryRun(batch);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              common::ErrorCode::MalformedScript);
    EXPECT_EQ(result.error().barrier, 0);
    EXPECT_NE(result.error().message.find("expects 2 signal"),
              std::string::npos)
        << result.error().toString();
}

TEST(Interpreter, InstructionCountAndTimingAreReported)
{
    InterpRig rig;
    const auto a = rig.vec({1, 2});
    const auto b = rig.vec({0, 0});
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::Copy, 2, {b, a});
    batch.script.emit(7, vpps::Opcode::Copy, 2, {b, a});
    const auto result = rig.run(batch);
    EXPECT_EQ(result.instructions, 2u);
    EXPECT_GT(result.kernel_us, rig.device.spec().kernel_launch_us);
    EXPECT_GE(result.makespan_us, result.mean_vpp_us);
}

// -- Cost pins -----------------------------------------------------
// Each non-sync opcode runs once on the rig, and the simulated kernel
// time and the device's DRAM traffic (prologue and epilogue included)
// are pinned bit for bit. Any edit to the interpreter's cost model
// that moves simulated time or traffic for one opcode fails its pin.

/** Operand roles, resolved against the pin rig's buffers. */
enum Role : std::uint32_t
{
    kOut,    //!< vector written (or accumulated into)
    kIn0,    //!< vectors read
    kIn1,
    kIn2,
    kScalar, //!< one-float loss / loss-gradient slot
    kLabel,  //!< class label below kPinLen
    kBits,   //!< a float factor's bit pattern
};

/** Immediate of the pinned vector instructions. */
constexpr std::uint32_t kPinLen = 40;

struct CostPin
{
    Opcode op;
    std::vector<Role> operands;
    double kernel_us;
    /** Nonzero per-space "load/store" bytes, then the atomics. */
    const char* traffic;
};

std::string
trafficText(const gpusim::TrafficStats& t)
{
    std::ostringstream out;
    out << std::setprecision(17);
    for (std::size_t i = 0; i < gpusim::TrafficStats::kNumSpaces; ++i) {
        const auto space = static_cast<gpusim::MemSpace>(i);
        if (t.loadBytes(space) != 0.0 || t.storeBytes(space) != 0.0)
            out << gpusim::memSpaceName(space) << ' '
                << t.loadBytes(space) << '/' << t.storeBytes(space)
                << ' ';
    }
    out << "atomics " << t.atomicOps();
    return out.str();
}

const CostPin kCostPins[] = {
    {Opcode::Nop, {}, 0x1.d377777777778p+2,
     "weights 128/128 script 4/0 atomics 0"},
    {Opcode::MatVec, {kIn0, kOut}, 0x1.0365656565656p+3,
     "weights 128/128 activations 64/32 script 48/0 atomics 0"},
    {Opcode::MatVecT, {kIn0, kOut}, 0x1.03e06fcbf4eabp+3,
     "weights 128/128 act-grads 32/64 script 48/0 atomics 16"},
    {Opcode::Outer, {kIn0, kIn1}, 0x1.db056bd2389fp+2,
     "weights 128/128 activations 64/0 act-grads 32/0 script 48/0 atomics 0"},
    {Opcode::Copy, {kOut, kIn0}, 0x1.d4c0c0c0c0c0cp+2,
     "weights 128/128 activations 160/160 script 12/0 atomics 0"},
    {Opcode::Accum, {kOut, kIn0}, 0x1.d561616161616p+2,
     "weights 128/128 act-grads 320/160 script 12/0 atomics 0"},
    {Opcode::AccumParam, {kOut, kIn0}, 0x1.d561616161616p+2,
     "weights 128/128 param-grads 160/160 act-grads 160/0 "
     "script 12/0 atomics 0"},
    {Opcode::Add2, {kOut, kIn0, kIn1}, 0x1.d565656565656p+2,
     "weights 128/128 activations 320/160 script 16/0 atomics 0"},
    {Opcode::Add3, {kOut, kIn0, kIn1, kIn2}, 0x1.d60a0a0a0a0ap+2,
     "weights 128/128 activations 480/160 script 20/0 atomics 0"},
    {Opcode::Mul, {kOut, kIn0, kIn1}, 0x1.d565656565656p+2,
     "weights 128/128 activations 320/160 script 16/0 atomics 0"},
    {Opcode::MulAccum, {kOut, kIn0, kIn1}, 0x1.d60606060606p+2,
     "weights 128/128 activations 160/0 act-grads 320/160 "
     "script 16/0 atomics 0"},
    {Opcode::Tanh, {kOut, kIn0}, 0x1.d4c0c0c0c0c0cp+2,
     "weights 128/128 activations 160/160 script 12/0 atomics 0"},
    {Opcode::TanhBack, {kOut, kIn0, kIn1}, 0x1.d60606060606p+2,
     "weights 128/128 activations 160/0 act-grads 320/160 "
     "script 16/0 atomics 0"},
    {Opcode::Sigmoid, {kOut, kIn0}, 0x1.d4c0c0c0c0c0cp+2,
     "weights 128/128 activations 160/160 script 12/0 atomics 0"},
    {Opcode::SigmoidBack, {kOut, kIn0, kIn1}, 0x1.d60606060606p+2,
     "weights 128/128 activations 160/0 act-grads 320/160 "
     "script 16/0 atomics 0"},
    {Opcode::Relu, {kOut, kIn0}, 0x1.d4c0c0c0c0c0cp+2,
     "weights 128/128 activations 160/160 script 12/0 atomics 0"},
    {Opcode::ReluBack, {kOut, kIn0, kIn1}, 0x1.d60606060606p+2,
     "weights 128/128 activations 160/0 act-grads 320/160 "
     "script 16/0 atomics 0"},
    {Opcode::Scale, {kOut, kIn0, kBits}, 0x1.d4c4c4c4c4c4cp+2,
     "weights 128/128 activations 160/160 script 16/0 atomics 0"},
    {Opcode::ScaleAccum, {kOut, kIn0, kBits}, 0x1.d565656565656p+2,
     "weights 128/128 act-grads 320/160 script 16/0 atomics 0"},
    {Opcode::PickNLS, {kIn0, kOut, kScalar, kLabel}, 0x1.d4ccccccccccdp+2,
     "weights 128/128 activations 160/164 script 20/0 atomics 0"},
    {Opcode::PickNLSBack, {kIn0, kScalar, kOut, kLabel}, 0x1.d569696969696p+2,
     "weights 128/128 activations 160/0 act-grads 160/160 "
     "script 20/0 atomics 0"},
    {Opcode::UpdateVec, {kOut, kIn0}, 0x1.d60202020202p+2,
     "weights 128/128 params 160/320 param-grads 160/0 script 12/0 atomics 0"},
};

/** Print a pin by opcode; its raw bytes hold padding and pointers. */
void PrintTo(const CostPin& pin, std::ostream* os)
{
    *os << vpps::opcodeName(pin.op);
}

class InterpreterCostPin : public testing::TestWithParam<CostPin>
{
};

TEST_P(InterpreterCostPin, KernelTimeAndTrafficAreUnchanged)
{
    const CostPin& pin = GetParam();
    InterpRig rig;
    auto& mem = rig.device.memory();
    DeviceMemory::Offset buffers[4];
    for (auto& b : buffers) {
        b = mem.allocate(64, gpusim::MemSpace::Activations);
        for (int i = 0; i < 64; ++i)
            mem.data(b)[i] = 0.125f * static_cast<float>(i % 7) - 0.25f;
    }
    const auto scalar = rig.vec({0.5f});
    const float factor = 0.75f;
    std::uint32_t bits;
    std::memcpy(&bits, &factor, sizeof(bits));

    std::vector<std::uint32_t> operands;
    for (Role role : pin.operands)
        operands.push_back(role <= kIn2 ? buffers[role]
                           : role == kScalar ? scalar
                           : role == kLabel  ? 7u
                                             : bits);

    // Matrix products run on every VPP caching rows of W, as the
    // generator emits them; every other instruction runs on one VPP
    // that caches W rows too, so it lies on the kernel's critical path.
    auto batch = rig.fresh();
    const auto& plan = rig.kernel.plan;
    if (pin.op == Opcode::MatVec || pin.op == Opcode::MatVecT ||
        pin.op == Opcode::Outer) {
        for (int vpp : plan.vppsOf(rig.w, pin.op == Opcode::Outer))
            batch.script.emit(vpp, pin.op, rig.w, operands);
    } else {
        batch.script.emit(plan.vppsOf(rig.w, false).front(), pin.op,
                          pin.op == Opcode::Nop ? 0 : kPinLen,
                          operands);
    }
    const auto result = rig.run(batch);
    EXPECT_EQ(result.kernel_us, pin.kernel_us)
        << std::hexfloat << result.kernel_us;
    EXPECT_EQ(trafficText(rig.device.traffic()), pin.traffic);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, InterpreterCostPin, testing::ValuesIn(kCostPins),
    [](const testing::TestParamInfo<CostPin>& info) {
        return std::string(vpps::opcodeName(info.param.op));
    });

// -- Zero-row matrix products ---------------------------------------
// The validator accepts a matrix product on any VPP and on any param
// id, including a VPP that caches no rows of the matrix and a bias,
// which is cached nowhere. Both are charged as zero-row products: no
// flops, but the vector traffic and latency hops of the opcode. These
// pins keep the charge of each case; the mean VPP time is pinned too,
// so the pin holds whether or not the instruction's VPP is the
// critical one.

struct ZeroRowPin
{
    const char* name;
    Opcode op;
    /** Name the rig's bias instead of W in the immediate. */
    bool on_bias;
    double kernel_us;
    double mean_vpp_us;
    const char* traffic;
};

const ZeroRowPin kZeroRowPins[] = {
    {"mvm_uncached", Opcode::MatVec, false, 0x1.0341414141414p+3,
     0x1.34aaf7c4915d7p+0,
     "weights 128/128 activations 16/0 script 12/0 atomics 0"},
    {"mvm_t_uncached", Opcode::MatVecT, false, 0x1.0339393939394p+3,
     0x1.34aa90f75dc37p+0,
     "weights 128/128 act-grads 0/16 script 12/0 atomics 0"},
    {"outer_uncached", Opcode::Outer, false, 0x1.dafd63ca3097p+2,
     0x1.339470998f513p+0,
     "weights 128/128 activations 16/0 script 12/0 atomics 0"},
    {"mvm_bias", Opcode::MatVec, true, 0x1.035b5b5b5b5b6p+3,
     0x1.34aaaaaaaaa9fp+0,
     "weights 128/128 activations 4/0 script 12/0 atomics 0"},
};

void PrintTo(const ZeroRowPin& pin, std::ostream* os) { *os << pin.name; }

class InterpreterZeroRowPin : public testing::TestWithParam<ZeroRowPin>
{
};

TEST_P(InterpreterZeroRowPin, KernelTimeAndTrafficAreUnchanged)
{
    const ZeroRowPin& pin = GetParam();
    InterpRig rig(pin.on_bias);
    auto& mem = rig.device.memory();
    const auto in = mem.allocate(64, gpusim::MemSpace::Activations);
    const auto out = mem.allocate(64, gpusim::MemSpace::Activations);
    for (int i = 0; i < 64; ++i)
        mem.data(in)[i] = 0.125f * static_cast<float>(i % 5) - 0.25f;

    // The bias product runs where the vector pins run; the uncached
    // products run on the first VPP holding no row of W or of dW.
    const auto& plan = rig.kernel.plan;
    auto caches_w = [&](int vpp) {
        return !plan.slices(vpp, rig.w, false).empty() ||
               !plan.slices(vpp, rig.w, true).empty();
    };
    int vpp = plan.vppsOf(rig.w, false).front();
    if (!pin.on_bias) {
        vpp = 0;
        while (caches_w(vpp))
            ++vpp;
    }
    auto batch = rig.fresh();
    batch.script.emit(vpp, pin.op, pin.on_bias ? rig.bias : rig.w,
                      {in, out});
    const auto result = rig.run(batch);
    EXPECT_EQ(result.kernel_us, pin.kernel_us)
        << std::hexfloat << result.kernel_us;
    EXPECT_EQ(result.mean_vpp_us, pin.mean_vpp_us)
        << std::hexfloat << result.mean_vpp_us;
    EXPECT_EQ(trafficText(rig.device.traffic()), pin.traffic);
}

INSTANTIATE_TEST_SUITE_P(
    MatrixOps, InterpreterZeroRowPin, testing::ValuesIn(kZeroRowPins),
    [](const testing::TestParamInfo<ZeroRowPin>& info) {
        return std::string(info.param.name);
    });

// -- Deferred merge and in-place Outer -------------------------------
// MatVecT's dx and the += family defer into per-VPP scratch that the
// scheduler adds onto the pool at the phase boundary, in (VPP,
// program) order. Outer accumulates straight into its VPP's own rows
// of dW. Both must give the bits of a serial (VPP, program)-order
// reference computed here, at every thread count.

constexpr int kMergeThreadCounts[] = {1, 2, 3, 4, 8};

/** Fill @p n pool floats at @p off with magnitudes over 2^-8..2^8, so
 *  a changed summation order changes bits. */
void
fillMixed(DeviceMemory& mem, DeviceMemory::Offset off, std::size_t n,
          common::Rng& rng)
{
    for (std::size_t i = 0; i < n; ++i)
        mem.data(off)[i] =
            std::ldexp(rng.nextFloat(-1.0f, 1.0f), rng.nextInt(-8, 8));
}

TEST(InterpreterMerge, DeferredMergeKeepsVppProgramOrder)
{
    // 48 VPPs in one phase: three Accums each and, on the 32 VPPs
    // caching rows of the 64 x 150 W, a MatVecT. Every target lies in
    // one 701-float region placed at an odd offset, so the targets
    // overlap and start at odd offsets.
    InterpRig rig(false, 64, 150);
    auto& mem = rig.device.memory();
    const auto& plan = rig.kernel.plan;
    common::Rng rng(71);
    mem.allocate(37, gpusim::MemSpace::Activations);
    constexpr std::uint32_t kRegion = 701, kCols = 150;
    const auto region = mem.allocate(kRegion, gpusim::MemSpace::ActGrads);
    const auto src = mem.allocate(4096, gpusim::MemSpace::ActGrads);
    const auto dy = mem.allocate(64, gpusim::MemSpace::ActGrads);
    fillMixed(mem, rig.model.param(rig.w).value, 64 * kCols, rng);
    fillMixed(mem, region, kRegion, rng);
    fillMixed(mem, src, 4096, rng);
    fillMixed(mem, dy, 64, rng);
    const std::vector<float> initial(mem.data(region),
                                     mem.data(region) + kRegion);

    struct Op
    {
        int vpp;
        Opcode op;
        std::uint32_t at;  //!< target offset in the region
        std::uint32_t len; //!< floats accumulated
        std::uint32_t from; //!< Accum source offset in src
    };
    std::vector<Op> ops; // (VPP, program) order
    for (int vpp = 0; vpp < 48; ++vpp) {
        for (int k = 0; k < 3; ++k) {
            const auto u = static_cast<std::uint32_t>(vpp * 3 + k);
            ops.push_back({vpp, Opcode::Accum, (u * 37) % 451 + 1,
                           63 + (u * 53) % 187, (u * 61) % 3800});
            if (k == 0 && !plan.slices(vpp, rig.w, false).empty())
                ops.push_back({vpp, Opcode::MatVecT,
                               (u * 41) % 549 + 3, kCols, 0});
        }
    }
    std::vector<float> want = initial;
    const float* w = mem.data(rig.model.param(rig.w).value);
    for (const Op& o : ops) {
        std::vector<float> part(o.len, 0.0f); // the VPP's scratch
        if (o.op == Opcode::Accum) {
            for (std::uint32_t i = 0; i < o.len; ++i)
                part[i] += mem.data(src)[o.from + i];
        } else {
            for (const auto& s : plan.slices(o.vpp, rig.w, false))
                for (std::uint32_t r = s.first_row;
                     r < s.first_row + s.num_rows; ++r)
                    for (std::uint32_t c = 0; c < kCols; ++c)
                        part[c] += w[r * kCols + c] * mem.data(dy)[r];
        }
        for (std::uint32_t i = 0; i < o.len; ++i)
            want[o.at + i] += part[i];
    }

    for (int threads : kMergeThreadCounts) {
        std::copy(initial.begin(), initial.end(), mem.data(region));
        auto batch = rig.fresh();
        for (const Op& o : ops) {
            if (o.op == Opcode::Accum)
                batch.script.emit(o.vpp, Opcode::Accum, o.len,
                                  {region + o.at, src + o.from});
            else
                batch.script.emit(o.vpp, Opcode::MatVecT, rig.w,
                                  {dy, region + o.at});
        }
        // Gradient-only: the epilogue's SGD step would move W and
        // clear p.grad.
        ASSERT_TRUE(rig.tryRun(batch, threads, false).ok());
        EXPECT_EQ(std::memcmp(mem.data(region), want.data(),
                              kRegion * sizeof(float)),
                  0)
            << threads << " host threads";
    }
}

TEST(InterpreterMerge, OutersAccumulateInPlaceInProgramOrder)
{
    // Every VPP caching rows of dW runs two Outers in one phase. They
    // accumulate into its own rows of p.grad, in program order.
    InterpRig rig(false, 64, 150);
    auto& mem = rig.device.memory();
    const auto& plan = rig.kernel.plan;
    const auto& p = rig.model.param(rig.w);
    constexpr std::uint32_t kRows = 64, kCols = 150;
    common::Rng rng(72);
    DeviceMemory::Offset dy[2], x[2];
    for (int k = 0; k < 2; ++k) {
        dy[k] = mem.allocate(kRows, gpusim::MemSpace::ActGrads);
        x[k] = mem.allocate(kCols, gpusim::MemSpace::Activations);
        fillMixed(mem, dy[k], kRows, rng);
        fillMixed(mem, x[k], kCols, rng);
    }
    fillMixed(mem, p.grad, kRows * kCols, rng);
    const std::vector<float> initial(mem.data(p.grad),
                                     mem.data(p.grad) + kRows * kCols);

    std::vector<float> want = initial;
    for (int vpp : plan.vppsOf(rig.w, true))
        for (int k = 0; k < 2; ++k)
            for (const auto& s : plan.slices(vpp, rig.w, true))
                for (std::uint32_t r = s.first_row;
                     r < s.first_row + s.num_rows; ++r)
                    for (std::uint32_t c = 0; c < kCols; ++c)
                        want[r * kCols + c] +=
                            mem.data(dy[k])[r] * mem.data(x[k])[c];

    for (int threads : kMergeThreadCounts) {
        std::copy(initial.begin(), initial.end(), mem.data(p.grad));
        auto batch = rig.fresh();
        for (int vpp : plan.vppsOf(rig.w, true))
            for (int k = 0; k < 2; ++k)
                batch.script.emit(vpp, Opcode::Outer, rig.w,
                                  {dy[k], x[k]});
        // Gradient-only: the epilogue's SGD step would move W and
        // clear p.grad.
        ASSERT_TRUE(rig.tryRun(batch, threads, false).ok());
        EXPECT_EQ(std::memcmp(mem.data(p.grad), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << threads << " host threads";
    }
}

// -- Script cache hits -----------------------------------------------

/** Traffic, kernel time, instructions and loss of one run. */
struct RunPrint
{
    float loss;
    double kernel_us;
    std::uint64_t instructions;
    std::string traffic;
};

TEST(InterpreterCacheHit, RunsTheCachedCopyNotAReusedScriptBuffer)
{
    // A script's stream buffers pass to the next script built on the
    // same thread. Script A runs (a miss) and is destroyed; script B,
    // the same size but different words, takes A's buffers and stays
    // alive; A rebuilt is then a hit. The hit must run the cache's
    // own copy of A: a cache that kept pointers into A's streams would
    // run B's words here, which ASan cannot see because the buffers
    // stay allocated.
    InterpRig rig;
    auto& mem = rig.device.memory();
    const auto x = rig.vec({0.5f, -1.0f, 2.0f, 0.25f});
    const auto y = rig.vec({1.5f, 0.5f, -0.5f, 1.0f});
    const auto u = rig.vec({0, 0, 0, 0});
    const auto z = rig.vec({0, 0, 0, 0});
    const auto h = mem.allocate(8, gpusim::MemSpace::Activations);
    const auto probs = rig.vec({0, 0, 0, 0});
    const std::uint32_t loss = rig.cg.node(rig.loss_node).fwd;
    const auto& w_vpps = rig.kernel.plan.vppsOf(rig.w, false);

    vpps::ScriptCache cache;
    vpps::ScriptExecutor executor(rig.device, 1, &cache);
    auto run = [&](bool a) {
        vpps::GeneratedBatch batch = rig.fresh();
        for (int vpp : w_vpps)
            batch.script.emit(vpp, a ? Opcode::MatVec : Opcode::MatVecT,
                              rig.w, {a ? x : h, a ? h : z});
        batch.script.emit(0, a ? Opcode::Add2 : Opcode::Mul, 4,
                          {u, x, y});
        batch.script.emit(0, Opcode::PickNLS, 4,
                          {u, probs, loss, a ? 1u : 2u});
        batch.loss_node = rig.loss_node;
        batch.script.seal();
        rig.device.traffic().reset();
        const auto r =
            executor.run(rig.kernel, batch, rig.model, rig.cg).value();
        return std::pair{
            RunPrint{r.loss, r.kernel_us, r.instructions,
                     trafficText(rig.device.traffic())},
            std::move(batch)};
    };

    const RunPrint first = run(true).first; // A: a miss, destroyed
    auto [b_print, b_alive] = run(false);    // B takes A's buffers
    const RunPrint again = run(true).first;  // A again: a hit

    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_NE(b_print.loss, first.loss) << "B must differ from A";
    EXPECT_EQ(std::memcmp(&again.loss, &first.loss, sizeof(float)), 0);
    EXPECT_EQ(again.kernel_us, first.kernel_us);
    EXPECT_EQ(again.instructions, first.instructions);
    EXPECT_EQ(again.traffic, first.traffic);
}

} // namespace

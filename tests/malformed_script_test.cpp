/**
 * @file
 * Malformed and adversarial scripts must surface clean structured
 * errors -- never a hang, never an abort. Covers static decode
 * validation (bad opcodes, truncated streams, out-of-range barriers,
 * Signal/Wait count mismatches, operand ranges, labels, and a decode
 * cache shared by models of different shapes) and runtime stall
 * diagnosis (a statically-consistent script whose barrier order
 * deadlocks), at both serial and 8-thread host interpretation.
 */
#include <gtest/gtest.h>

#include <ios>
#include <vector>

#include "common/rng.hpp"
#include "vpps/script_cache.hpp"
#include "vpps/script_exec.hpp"

namespace {

using common::ErrorCode;

/** A tiny model + compiled kernel to run hand-built scripts against:
 *  one 8 x @p cols weight matrix W (param id 0). */
struct MalformedRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 4u << 20};
    graph::Model model;
    vpps::CompiledKernel kernel;
    graph::ComputationGraph cg;
    graph::NodeId loss_node;

    explicit MalformedRig(std::uint32_t cols = 4)
    {
        model.addWeightMatrix("W", 8, cols);
        common::Rng rng(111);
        model.allocate(device, rng);
        vpps::VppsOptions opts;
        auto plan = vpps::DistributionPlan::buildAuto(
            model, device.spec(), opts, 2);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model, plan);
        loss_node = cg.addInput({0.0f});
        cg.node(loss_node).fwd =
            device.memory().allocate(1, gpusim::MemSpace::Activations);
    }

    common::Result<vpps::RunResult>
    run(vpps::GeneratedBatch& batch, int threads,
        vpps::ScriptCache* cache = nullptr)
    {
        batch.loss_node = loss_node;
        batch.script.seal();
        vpps::ScriptExecutor executor(device, threads, cache);
        return executor.run(kernel, batch, model, cg);
    }

    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(device.memory().capacity());
    }

    vpps::GeneratedBatch
    fresh()
    {
        return vpps::GeneratedBatch(kernel.plan.numVpps());
    }
};

class MalformedScriptTest : public testing::TestWithParam<int>
{
};

/** Expect @p r to be a decode error at VPP @p vpp, pc 0, whose
 *  message contains @p what. */
void
expectDecodeError(const common::Result<vpps::RunResult>& r, int vpp,
                  const std::string& what)
{
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, vpp);
    EXPECT_EQ(r.error().pc, 0);
    EXPECT_NE(r.error().message.find(what), std::string::npos)
        << r.error().toString();
}

/** Expect @p device to have been charged @p busy_us of device time
 *  and @p traffic: loads and stores per space in MemSpace order, then
 *  atomics. A stalled run still charges the work before the stall. */
void
expectCharged(const gpusim::Device& device, double busy_us,
              const std::vector<double>& traffic)
{
    EXPECT_EQ(device.busyUs(), busy_us)
        << std::hexfloat << device.busyUs();
    std::vector<double> got;
    const gpusim::TrafficStats& s = device.traffic();
    for (std::size_t i = 0; i < gpusim::TrafficStats::kNumSpaces; ++i) {
        const auto space = static_cast<gpusim::MemSpace>(i);
        got.push_back(s.loadBytes(space));
        got.push_back(s.storeBytes(space));
    }
    got.push_back(s.atomicOps());
    EXPECT_EQ(got, traffic);
}

TEST_P(MalformedScriptTest, SignalCountMismatchIsRejectedAtDecode)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Barrier 0 declares 2 signals but the script emits only 1.
    batch.script.emit(0, vpps::Opcode::Signal, 0, {});
    batch.script.emit(1, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 2);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().barrier, 0);
    EXPECT_NE(r.error().message.find("expects 2 signal"),
              std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, OverSignaledBarrierIsRejectedAtDecode)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Two signals for a barrier that declares one: on the device the
    // second atomicAdd would over-trip the counter.
    batch.script.emit(0, vpps::Opcode::Signal, 0, {});
    batch.script.emit(1, vpps::Opcode::Signal, 0, {});
    batch.script.emit(2, vpps::Opcode::Wait, 0, {});
    batch.script.setExpectedSignals(0, 1);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().barrier, 0);
}

TEST_P(MalformedScriptTest, TruncatedStreamIsRejectedWithLocation)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // A Copy preamble promising 2 operand words, with only 1 present
    // (a truncated H2D transfer / corrupted length field).
    batch.script.appendRawWord(
        2, vpps::packPreamble(vpps::Opcode::Copy, 4));
    batch.script.appendRawWord(2, 123);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 2);
    EXPECT_EQ(r.error().pc, 0);
    EXPECT_NE(r.error().message.find("truncated"), std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, InvalidOpcodeIsRejectedWithLocation)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    batch.script.emit(1, vpps::Opcode::Nop, 0, {});
    batch.script.appendRawWord(
        1, vpps::packPreamble(static_cast<vpps::Opcode>(0xEE), 0));
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 1);
    EXPECT_EQ(r.error().pc, 1);
    EXPECT_NE(r.error().message.find("bad opcode"), std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, OutOfRangeBarrierIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Barrier 5 was never declared via setExpectedSignals: on the
    // device the barrier-count table read would be out of bounds.
    batch.script.emit(0, vpps::Opcode::Signal, 5, {});
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_EQ(r.error().barrier, 5);
    EXPECT_NE(r.error().message.find("out of range"),
              std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, RuntimeDeadlockIsDiagnosedNotHung)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Statically consistent (every barrier receives its declared
    // signal count) but the order deadlocks: each VPP waits for the
    // signal the other can only emit after its own wait.
    batch.script.emit(0, vpps::Opcode::Wait, 0, {});
    batch.script.emit(0, vpps::Opcode::Signal, 1, {});
    batch.script.emit(1, vpps::Opcode::Wait, 1, {});
    batch.script.emit(1, vpps::Opcode::Signal, 0, {});
    batch.script.setExpectedSignals(0, 1);
    batch.script.setExpectedSignals(1, 1);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::BarrierDeadlock);
    // The diagnosis names the stuck VPPs and their barriers.
    EXPECT_NE(r.error().message.find("vpp 0"), std::string::npos)
        << r.error().toString();
    EXPECT_NE(r.error().message.find("vpp 1"), std::string::npos)
        << r.error().toString();
    EXPECT_NE(r.error().message.find("0/1 signals"),
              std::string::npos)
        << r.error().toString();
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_EQ(r.error().barrier, 0);
    // The prologue fetched both streams and every cached row of W.
    expectCharged(rig.device, 0x1.b35b5b5b5b5b6p+2,
                  {0x1p+7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x1p+4, 0, 0,
                   0, 0});
}

TEST_P(MalformedScriptTest, DeadlockReportsInstructionIndexNotWordOffset)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    const auto src = rig.device.memory().allocate(
        4, gpusim::MemSpace::Activations);
    const auto dst = rig.device.memory().allocate(
        4, gpusim::MemSpace::Activations);
    // VPP 0's stuck Wait is its third instruction (pc 2) but starts at
    // word 4, after a three-word Copy and a one-word Nop: locations
    // are instruction indices.
    batch.script.emit(0, vpps::Opcode::Copy, 4, {dst, src});
    batch.script.emit(0, vpps::Opcode::Nop, 0, {});
    batch.script.emit(0, vpps::Opcode::Wait, 0, {});
    batch.script.emit(0, vpps::Opcode::Signal, 1, {});
    batch.script.emit(1, vpps::Opcode::Wait, 1, {});
    batch.script.emit(1, vpps::Opcode::Signal, 0, {});
    batch.script.setExpectedSignals(0, 1);
    batch.script.setExpectedSignals(1, 1);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::BarrierDeadlock);
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_EQ(r.error().pc, 2);
    EXPECT_EQ(r.error().barrier, 0);
    EXPECT_NE(r.error().message.find("vpp 0 at pc 2 on barrier 0"),
              std::string::npos)
        << r.error().toString();
    EXPECT_NE(r.error().message.find("vpp 1 at pc 0 on barrier 1"),
              std::string::npos)
        << r.error().toString();
    // The Copy and the Nop before the stuck Wait ran and charged.
    expectCharged(rig.device, 0x1.c058585858586p+2,
                  {0x1p+7, 0, 0, 0, 0, 0, 0, 0, 0x1p+4, 0x1p+4, 0, 0,
                   0x1p+5, 0, 0, 0, 0});
}

// -- Fuzzer-promoted regressions --------------------------------
// Shapes the decoder fuzzer (decoder_fuzz_test) surfaced often
// enough to deserve named, deterministic cases: each models one
// concrete corruption of an in-flight script transfer.

TEST_P(MalformedScriptTest, BitFlippedMatVecParamIdIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // A flipped high bit turns a valid param id into garbage (the
    // immediate field is 24 bits wide); undetected, the interpreter
    // would index the model's param table out of bounds.
    batch.script.emit(0, vpps::Opcode::MatVec, 0x800000u, {0, 0});
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_EQ(r.error().pc, 0);
    EXPECT_NE(r.error().message.find("param id out of range"),
              std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, SpanAtPoolCapacityIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Offset == capacity: the first float of the span is already one
    // past the end of the pool (the classic off-by-one the fuzzer
    // kept finding around allocator boundaries).
    const auto cap = static_cast<std::uint32_t>(
        rig.device.memory().capacity());
    batch.script.emit(1, vpps::Opcode::Copy, 4, {cap, 0});
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 1);
    EXPECT_NE(r.error().message.find("operand out of pool range"),
              std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, SpanLengthOverflowIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // The maximum representable length (all 24 immediate bits set)
    // with in-range offsets: offset + length lands far past the end
    // of the pool. The check must sum in 64 bits so a large length
    // cannot wrap back into range.
    batch.script.emit(0, vpps::Opcode::Copy, 0xFFFFFFu, {0, 0});
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_NE(r.error().message.find("operand out of pool range"),
              std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, MatrixRowsOperandPastPoolEndIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // MatVecT reads dy, one float per row of W (8 rows, 4 cols):
    // starting 4 floats before the pool end it overruns the pool,
    // although a cols-length span there would fit.
    batch.script.emit(0, vpps::Opcode::MatVecT, 0,
                      {rig.capacity() - 4, 0});
    expectDecodeError(rig.run(batch, GetParam()), 0,
                      "operand out of pool range in mvm_t");
}

TEST_P(MalformedScriptTest, EmptyLogitsVectorIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    batch.script.emit(1, vpps::Opcode::PickNLS, 0, {0, 16, 32, 0});
    expectDecodeError(rig.run(batch, GetParam()), 1,
                      "empty logits vector in pick_nls");
}

TEST_P(MalformedScriptTest, LabelOutsideLogitsIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // Label 4 of a 4-logit vector: one past the last class.
    batch.script.emit(0, vpps::Opcode::PickNLSBack, 4, {0, 16, 32, 4});
    expectDecodeError(rig.run(batch, GetParam()), 0,
                      "label out of range in pick_nls_back");
}

TEST_P(MalformedScriptTest, LossScalarAtPoolCapacityIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    batch.script.emit(0, vpps::Opcode::PickNLS, 4,
                      {0, 16, rig.capacity(), 1});
    expectDecodeError(rig.run(batch, GetParam()), 0,
                      "operand out of pool range in pick_nls");
}

TEST_P(MalformedScriptTest, SharedCacheDistinguishesParameterShapes)
{
    // Two one-matrix models that differ only in W's width share one
    // decode cache. A MatVec whose x starts 8 floats before the pool
    // end is valid for the 8x4 model (x is 4 floats) but runs 56
    // floats past the pool for the 8x64 one, so the wide model must
    // not reuse the narrow model's decoding.
    MalformedRig narrow(4), wide(64);
    ASSERT_EQ(narrow.kernel.plan.numVpps(), wide.kernel.plan.numVpps());
    ASSERT_EQ(narrow.capacity(), wide.capacity());
    // Timing-only, so a wrongly accepted script reads nothing.
    wide.device.setFunctional(false);
    vpps::ScriptCache cache;
    const std::uint32_t x = narrow.capacity() - 8;
    const std::uint32_t y = narrow.capacity() - 16;

    auto ok = narrow.fresh();
    ok.script.emit(0, vpps::Opcode::MatVec, 0, {x, y});
    ASSERT_TRUE(narrow.run(ok, GetParam(), &cache).ok());

    auto bad = wide.fresh();
    bad.script.emit(0, vpps::Opcode::MatVec, 0, {x, y});
    expectDecodeError(wide.run(bad, GetParam(), &cache), 0,
                      "operand out of pool range in mvm");
}

TEST_P(MalformedScriptTest, TruncatedTailAfterValidPrefixIsRejected)
{
    MalformedRig rig;
    auto batch = rig.fresh();
    // A well-formed prefix followed by a stream cut mid-instruction
    // (a transfer that dropped its last words): the decode error
    // must point at the truncated tail, not the valid prefix.
    batch.script.emit(0, vpps::Opcode::Nop, 0, {});
    batch.script.emit(0, vpps::Opcode::Nop, 0, {});
    batch.script.appendRawWord(
        0, vpps::packPreamble(vpps::Opcode::Add2, 4));
    batch.script.appendRawWord(0, 1);
    const auto r = rig.run(batch, GetParam());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::MalformedScript);
    EXPECT_EQ(r.error().vpp, 0);
    EXPECT_EQ(r.error().pc, 2);
    EXPECT_NE(r.error().message.find("truncated"), std::string::npos)
        << r.error().toString();
}

TEST_P(MalformedScriptTest, ValidScriptStillRunsAfterRejections)
{
    // Rejected scripts must not poison the executor's decode cache or
    // the device: a well-formed script on the same executor succeeds.
    MalformedRig rig;
    vpps::ScriptExecutor executor(rig.device, GetParam());

    auto bad = rig.fresh();
    bad.script.emit(0, vpps::Opcode::Signal, 9, {});
    bad.loss_node = rig.loss_node;
    bad.script.seal();
    ASSERT_FALSE(
        executor.run(rig.kernel, bad, rig.model, rig.cg).ok());

    auto good = rig.fresh();
    const auto src = rig.device.memory().allocate(
        4, gpusim::MemSpace::Activations);
    const auto dst = rig.device.memory().allocate(
        4, gpusim::MemSpace::Activations);
    rig.device.memory().data(src)[0] = 5.0f;
    good.script.emit(0, vpps::Opcode::Copy, 4, {dst, src});
    good.loss_node = rig.loss_node;
    good.script.seal();
    const auto r = executor.run(rig.kernel, good, rig.model, rig.cg);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_FLOAT_EQ(rig.device.memory().data(dst)[0], 5.0f);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, MalformedScriptTest,
                         testing::Values(1, 8),
                         [](const testing::TestParamInfo<int>& info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

} // namespace

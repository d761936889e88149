/** @file Unit tests for script generation and script-guided execution
 *  (Section III-B): barrier structure, coverage, load balancing, and
 *  interpretation invariants. */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "graph/level_sort.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "vpps/script_exec.hpp"
#include "vpps/script_gen.hpp"

namespace {

struct ScriptRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{21};
    data::Vocab vocab{200};
    data::Treebank bank{vocab, 8, data_rng, 8.0, 4, 12};
    common::Rng param_rng{22};
    models::TreeLstmModel model{bank, vocab, 32, 48, device,
                                param_rng};
    gpusim::HostSpec host;
    vpps::CompiledKernel kernel;

    explicit ScriptRig(int rpw = 2, bool grads = true)
    {
        vpps::VppsOptions opts;
        opts.cache_gradients = grads;
        auto plan = vpps::DistributionPlan::buildAuto(
            model.model(), device.spec(), opts, rpw);
        const vpps::KernelSpecializer specializer(device.spec());
        kernel = specializer.specialize(model.model(), plan);
    }

    vpps::GeneratedBatch
    generate(std::size_t batch = 2)
    {
        cg.clear();
        auto loss = train::buildSuperGraph(model, cg, 0, batch);
        const vpps::ScriptGenerator gen(kernel, host);
        return gen.generate(device, model.model(), cg, loss);
    }

    graph::ComputationGraph cg;
};

/** Decode a sealed script back into (vpp, opcode, imm) tuples. */
struct Decoded
{
    int vpp;
    vpps::Opcode op;
    std::uint32_t imm;
    std::vector<std::uint32_t> operands;
};

std::vector<Decoded>
decodeAll(const vpps::Script& script)
{
    std::vector<Decoded> out;
    for (int vpp = 0; vpp < script.numVpps(); ++vpp) {
        auto [pc, end] = script.vppStream(vpp);
        while (pc != end) {
            Decoded d;
            d.vpp = vpp;
            d.op = vpps::preambleOpcode(pc[0]);
            d.imm = vpps::preambleImm(pc[0]);
            const int n = vpps::operandWords(d.op);
            d.operands.assign(pc + 1, pc + 1 + n);
            out.push_back(std::move(d));
            pc += 1 + n;
        }
    }
    return out;
}

TEST(ScriptGen, SignalCountsMatchExpectations)
{
    ScriptRig rig;
    const auto gb = rig.generate();
    std::map<std::uint32_t, int> signals;
    for (const auto& d : decodeAll(gb.script))
        if (d.op == vpps::Opcode::Signal)
            ++signals[d.imm];
    const auto& expected = gb.script.expectedSignals();
    for (const auto& [barrier, count] : signals)
        EXPECT_EQ(static_cast<std::uint32_t>(count),
                  expected.at(barrier))
            << "barrier " << barrier;
    EXPECT_EQ(signals.size(), gb.stats.barriers);
}

TEST(ScriptGen, EveryVppWaitsBeforeItsPhaseWork)
{
    ScriptRig rig;
    const auto gb = rig.generate();
    // Per VPP: the stream must alternate [wait?] work* signal per
    // phase: a Wait on barrier b may only appear after some other
    // VPP's Signal structure guarantees it -- structurally, waits
    // must reference barriers smaller than the next signal emitted
    // by the same VPP.
    for (int vpp = 0; vpp < gb.script.numVpps(); ++vpp) {
        auto [pc, end] = gb.script.vppStream(vpp);
        std::int64_t last_wait = -1;
        while (pc != end) {
            const auto op = vpps::preambleOpcode(pc[0]);
            const auto imm = vpps::preambleImm(pc[0]);
            if (op == vpps::Opcode::Wait) {
                EXPECT_GT(static_cast<std::int64_t>(imm), last_wait)
                    << "waits must use increasing barrier indices";
                last_wait = imm;
            } else if (op == vpps::Opcode::Signal) {
                EXPECT_GT(static_cast<std::int64_t>(imm), last_wait)
                    << "a VPP signals a phase after waiting on the "
                       "previous one";
            }
            pc += 1 + vpps::operandWords(op);
        }
    }
}

TEST(ScriptGen, MatrixOpsTargetEveryCachingVpp)
{
    ScriptRig rig;
    const auto gb = rig.generate();
    const auto& plan = rig.kernel.plan;
    // Collect which VPPs got a MatVec for each matrix.
    std::map<std::uint32_t, std::set<int>> seen;
    for (const auto& d : decodeAll(gb.script))
        if (d.op == vpps::Opcode::MatVec)
            seen[d.imm].insert(d.vpp);
    ASSERT_FALSE(seen.empty());
    for (const auto& [m, vpps_seen] : seen) {
        const auto& holders = plan.vppsOf(m, false);
        EXPECT_EQ(vpps_seen.size(), holders.size())
            << "matvec against matrix " << m
            << " must run on every VPP caching its rows";
    }
}

TEST(ScriptGen, MinLoadTargetingSpreadsVectorOps)
{
    ScriptRig rig;
    const auto gb = rig.generate(4);
    std::map<int, int> vec_ops_per_vpp;
    for (const auto& d : decodeAll(gb.script)) {
        if (d.op == vpps::Opcode::Tanh ||
            d.op == vpps::Opcode::Sigmoid ||
            d.op == vpps::Opcode::Mul || d.op == vpps::Opcode::Copy)
            ++vec_ops_per_vpp[d.vpp];
    }
    // With hundreds of vector ops and 160 VPPs, min-load targeting
    // must involve many distinct VPPs.
    EXPECT_GT(vec_ops_per_vpp.size(), 32u);
}

TEST(ScriptGen, GemmFallbackStagesEveryMatvecPair)
{
    ScriptRig rig(2, /*grads=*/false);
    const auto gb = rig.generate();
    EXPECT_FALSE(gb.gemm_staging.empty());
    // No Outer instructions; instead staging copies exist.
    std::size_t outers = 0;
    for (const auto& d : decodeAll(gb.script))
        outers += d.op == vpps::Opcode::Outer ? 1 : 0;
    EXPECT_EQ(outers, 0u);
    // Counts per matrix equal the number of live MatVec nodes.
    std::map<graph::ParamId, std::uint32_t> uses;
    const auto live = graph::reachableFrom(
        rig.cg, gb.loss_node);
    for (graph::NodeId id = 0; id < rig.cg.size(); ++id)
        if (live[id] &&
            rig.cg.node(id).op == graph::OpType::MatVec)
            ++uses[rig.cg.node(id).param];
    for (const auto& st : gb.gemm_staging)
        EXPECT_EQ(st.count, uses.at(st.matrix));
}

TEST(ScriptExec, InterpretsToCompletionWithoutDeadlock)
{
    ScriptRig rig;
    auto gb = rig.generate();
    vpps::ScriptExecutor executor(rig.device);
    const auto result = executor.run(rig.kernel, gb,
                                     rig.model.model(), rig.cg)
                            .value();
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.kernel_us, 0.0);
    EXPECT_GE(result.makespan_us, result.mean_vpp_us);
    EXPECT_TRUE(std::isfinite(result.loss));
}

TEST(ScriptExec, WeightTrafficEqualsCachedBytesPerInvocation)
{
    ScriptRig rig;
    auto gb = rig.generate();
    rig.device.traffic().reset();
    vpps::ScriptExecutor executor(rig.device);
    ASSERT_TRUE(
        executor.run(rig.kernel, gb, rig.model.model(), rig.cg).ok());
    const double loads = rig.device.traffic().loadBytes(
        gpusim::MemSpace::Weights);
    EXPECT_DOUBLE_EQ(loads,
                     rig.model.model().totalWeightMatrixBytes());
    // The epilogue stores the updated master copies once.
    const double stores = rig.device.traffic().storeBytes(
        gpusim::MemSpace::Weights);
    EXPECT_DOUBLE_EQ(stores,
                     rig.model.model().totalWeightMatrixBytes());
}

TEST(ScriptExec, LargerRpwEmitsFewerMatrixInstructions)
{
    ScriptRig fine(1);
    ScriptRig coarse(4);
    const auto fine_gb = fine.generate();
    const auto coarse_gb = coarse.generate();
    EXPECT_GT(fine_gb.script.numInstructions(),
              coarse_gb.script.numInstructions())
        << "higher rpw concentrates rows on fewer warps/VPPs";
}

/** AddN with more arguments than one instruction can carry must be
 *  legalized into an Add3 followed by Accum instructions on the same
 *  VPP (the 20-byte instruction cap of Section III-B1). */
TEST(ScriptGen, WideAddNLegalizesToChain)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 8u << 20);
    graph::Model model;
    auto w = model.addWeightMatrix("W", 8, 8);
    common::Rng rng(23);
    model.allocate(device, rng);

    graph::ComputationGraph cg;
    std::vector<graph::Expr> terms;
    for (int i = 0; i < 5; ++i)
        terms.push_back(graph::input(
            cg, std::vector<float>(8, static_cast<float>(i + 1))));
    auto sum = graph::add(terms);
    auto loss =
        graph::pickNegLogSoftmax(graph::matvec(model, w, sum), 0);

    vpps::VppsOptions opts;
    auto plan = vpps::DistributionPlan::buildAuto(model,
                                                  device.spec(), opts,
                                                  2);
    const vpps::KernelSpecializer specializer(device.spec());
    auto kernel = specializer.specialize(model, plan);
    const gpusim::HostSpec host;
    const vpps::ScriptGenerator gen(kernel, host);
    auto gb = gen.generate(device, model, cg, loss);

    // Find the Add3 + 2x Accum chain, all on one VPP.
    int add3_vpp = -1;
    std::size_t accums = 0;
    for (const auto& d : decodeAll(gb.script)) {
        if (d.op == vpps::Opcode::Add3)
            add3_vpp = d.vpp;
        if (d.op == vpps::Opcode::Accum &&
            d.operands[0] == cg.node(sum.id).fwd) {
            EXPECT_EQ(d.vpp, add3_vpp)
                << "the accumulate chain must stay on one VPP";
            ++accums;
        }
    }
    ASSERT_NE(add3_vpp, -1);
    EXPECT_EQ(accums, 2u) << "5 args = Add3 + 2 Accum";

    // And the math comes out right: 1+2+3+4+5 = 15 per element.
    vpps::ScriptExecutor executor(device);
    ASSERT_TRUE(executor.run(kernel, gb, model, cg).ok());
    EXPECT_FLOAT_EQ(device.memory().data(cg.node(sum.id).fwd)[3],
                    15.0f);
}

TEST(ScriptGen, StatsAccountForBothDirections)
{
    ScriptRig rig;
    const auto gb = rig.generate();
    EXPECT_GT(gb.stats.fwd_instructions, 0u);
    EXPECT_GT(gb.stats.bwd_instructions, gb.stats.fwd_instructions)
        << "backward emits matvec-T and outer per matvec";
    EXPECT_GT(gb.stats.update_instructions, 0u);
    EXPECT_GT(gb.stats.fwd_sched_us, 0.0);
    EXPECT_GT(gb.stats.bwd_sched_us, 0.0);
    // Tree-LSTM leaves are lookups, so there is no Input staging.
    EXPECT_DOUBLE_EQ(gb.stats.input_bytes, 0.0);
    EXPECT_GT(gb.stats.zeroed_bytes, 0.0);
}

/** Copies of every VPP stream of a sealed script. */
std::vector<std::vector<std::uint32_t>>
streamsOf(const vpps::Script& script)
{
    std::vector<std::vector<std::uint32_t>> out;
    for (int vpp = 0; vpp < script.numVpps(); ++vpp) {
        auto [begin, end] = script.vppStream(vpp);
        out.emplace_back(begin, end);
    }
    return out;
}

/** Generates the batch of @p batch trees from tree @p start at a
 *  fixed pool mark, so equal batches place equal offsets. */
vpps::GeneratedBatch
generateAt(ScriptRig& rig, std::size_t start, std::size_t batch)
{
    auto& mem = rig.device.memory();
    const auto mark = mem.mark();
    rig.cg.clear();
    auto loss = train::buildSuperGraph(rig.model, rig.cg, start, batch);
    const vpps::ScriptGenerator gen(rig.kernel, rig.host);
    auto gb = gen.generate(rig.device, rig.model.model(), rig.cg, loss);
    mem.resetTo(mark);
    return gb;
}

TEST(ScriptGen, ReusedStreamBuffersReproduceTheScript)
{
    // A script takes the stream buffers of the last one destroyed on
    // its thread. Batch B is emitted into A's buffers and A again
    // into B's: the words must be A's, with nothing left of B.
    ScriptRig rig;
    std::uint64_t a_sum = 0;
    std::vector<std::vector<std::uint32_t>> a_streams;
    {
        const auto a = generateAt(rig, 0, 2);
        a_sum = a.script.checksum();
        a_streams = streamsOf(a.script);
    }
    {
        const auto b = generateAt(rig, 2, 4);
        EXPECT_NE(b.script.checksum(), a_sum);
    }
    const auto again = generateAt(rig, 0, 2);
    EXPECT_EQ(again.script.checksum(), a_sum);
    EXPECT_EQ(streamsOf(again.script), a_streams);
}

TEST(ScriptGen, DestroyingOneScriptLeavesAnotherIntact)
{
    ScriptRig rig;
    std::optional<vpps::GeneratedBatch> a = generateAt(rig, 0, 2);
    const auto b = generateAt(rig, 2, 4);
    const std::uint64_t b_sum = b.script.checksum();
    const auto b_streams = streamsOf(b.script);

    a.reset(); // its buffers go to the next script built here
    EXPECT_EQ(b.script.checksum(), b_sum);
    EXPECT_EQ(streamsOf(b.script), b_streams);

    const auto c = generateAt(rig, 0, 2);
    EXPECT_EQ(b.script.checksum(), b_sum);
    EXPECT_EQ(streamsOf(b.script), b_streams);
    EXPECT_NE(c.script.checksum(), b_sum);
}

} // namespace

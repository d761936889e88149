/**
 * @file
 * The validated-script cache (DESIGN.md section 4.11): its budget, its
 * counters, the lifetime of a program a batch holds, and the
 * generator's key. A batch that differs from a cached one in anything
 * emission reads must miss and run exactly as it would on a cold
 * cache; a batch that differs only in input values must hit.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <ios>
#include <vector>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "graph/expr.hpp"
#include "vpps/codegen.hpp"
#include "vpps/handle.hpp"
#include "vpps/script_cache.hpp"
#include "vpps/script_exec.hpp"
#include "vpps/script_gen.hpp"

namespace {

using vpps::ScriptCache;

/** What a batch changes relative to the base batch. */
enum class Variant
{
    Base,
    ScaleFactor, //!< the bits of a Scale node's factor
    LookupRow,   //!< the embedding row a Lookup reads
    Label,       //!< a PickNLS gold label
    LossNode,    //!< which node is the loss
    AddNOrder,   //!< the order of an AddN's args
    Rpw,         //!< the kernel's rows per warp
    ParamOffset, //!< where the parameters lie in the pool
    InputValues, //!< the values of an Input leaf, and nothing else
};

const char*
variantName(Variant v)
{
    switch (v) {
      case Variant::Base: return "base";
      case Variant::ScaleFactor: return "scale factor";
      case Variant::LookupRow: return "lookup row";
      case Variant::Label: return "label";
      case Variant::LossNode: return "loss node";
      case Variant::AddNOrder: return "AddN order";
      case Variant::Rpw: return "rpw";
      case Variant::ParamOffset: return "param offset";
      case Variant::InputValues: return "input values";
    }
    return "?";
}

/** What one batch computed and charged, and whether it hit. */
struct Outcome
{
    bool hit = false;
    std::uint32_t loss_bits = 0;
    double kernel_us = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t params_digest = 0; //!< both models, after the batch
};

/**
 * One device holding two identically shaped models: B's parameters
 * lie at other pool offsets than A's. Each model has a weight matrix,
 * a bias and an embedding table, so a batch emits matrix, vector,
 * lookup, loss and update instructions. No node reads the bias, so
 * its offsets reach the script only through its update.
 */
struct KeyRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 4u << 20};
    graph::Model a, b;
    vpps::CompiledKernel a_rpw2, a_rpw1, b_rpw2;

    static constexpr graph::ParamId kW = 0, kTable = 2;

    KeyRig()
    {
        for (graph::Model* m : {&a, &b}) {
            m->addWeightMatrix("W", 8, 4);
            m->addBias("b", 8);
            m->addLookup("E", 16, 4);
            common::Rng rng(7);
            m->allocate(device, rng);
        }
        a_rpw2 = specialize(a, 2);
        a_rpw1 = specialize(a, 1);
        b_rpw2 = specialize(b, 2);
    }

    vpps::CompiledKernel
    specialize(const graph::Model& m, int rpw) const
    {
        const vpps::VppsOptions opts;
        return vpps::KernelSpecializer(device.spec())
            .specialize(m, vpps::DistributionPlan::buildAuto(
                               m, device.spec(), opts, rpw));
    }

    graph::Model&
    model(Variant v)
    {
        return v == Variant::ParamOffset ? b : a;
    }

    const vpps::CompiledKernel&
    kernel(Variant v) const
    {
        return v == Variant::ParamOffset ? b_rpw2
               : v == Variant::Rpw       ? a_rpw1
                                         : a_rpw2;
    }

    /** The base batch, with the one change @p v names. */
    graph::Expr
    build(graph::ComputationGraph& cg, Variant v)
    {
        using namespace graph;
        const Model& m = model(v);
        const Expr x = lookup(cg, m, kTable,
                              v == Variant::LookupRow ? 5u : 3u);
        const Expr y = lookup(cg, m, kTable, 9);
        const Expr in = input(
            cg, v == Variant::InputValues
                    ? std::vector<float>{1.5f, 0.5f, -0.5f, 1.0f}
                    : std::vector<float>{0.5f, -1.0f, 2.0f, 0.25f});
        const Expr mx = matvec(m, kW, x);
        const Expr my = matvec(m, kW, y);
        const Expr mi = matvec(m, kW, in);
        const Expr h = v == Variant::AddNOrder ? add({mi, my, mx})
                                               : add({mx, my, mi});
        const Expr t = graph::tanh(h);
        const Expr s =
            scale(t, v == Variant::ScaleFactor ? 0.25f : 0.5f);
        const Expr l1 =
            pickNegLogSoftmax(s, v == Variant::Label ? 6u : 2u);
        const Expr l2 = pickNegLogSoftmax(t, 1);
        const Expr sum = sumLosses({l1, l2});
        return v == Variant::LossNode ? l1 : sum;
    }

    /** Generate and run one batch against @p cache. */
    Outcome
    run(Variant v, ScriptCache& cache)
    {
        auto& mem = device.memory();
        const auto mark = mem.mark();
        graph::ComputationGraph cg;
        const graph::Expr loss = build(cg, v);
        const vpps::ScriptGenerator gen(kernel(v), gpusim::HostSpec{});
        const vpps::GeneratedBatch gb =
            gen.generate(device, model(v), cg, loss, &cache);
        vpps::ScriptExecutor exec(device, 1, &cache);
        const auto r = exec.run(kernel(v), gb, model(v), cg);
        mem.resetTo(mark);
        EXPECT_TRUE(r.ok()) << r.status().toString();
        Outcome out;
        if (!r.ok())
            return out;
        out.hit = gb.program != nullptr;
        std::memcpy(&out.loss_bits, &r.value().loss, sizeof(float));
        out.kernel_us = r.value().kernel_us;
        out.instructions = r.value().instructions;
        out.params_digest = paramsDigest();
        return out;
    }

    std::uint64_t
    paramsDigest() const
    {
        std::vector<std::uint8_t> bytes;
        for (const graph::Model* m : {&a, &b})
            for (graph::ParamId id = 0; id < m->numParams(); ++id) {
                const auto& p = m->param(id);
                const auto* data = reinterpret_cast<const std::uint8_t*>(
                    device.memory().data(p.value));
                bytes.insert(bytes.end(), data,
                             data + p.shape.size() * sizeof(float));
            }
        return common::fnv1a64(bytes);
    }
};

void
expectSameRun(const Outcome& got, const Outcome& want)
{
    EXPECT_EQ(got.loss_bits, want.loss_bits)
        << std::hex << std::showbase << got.loss_bits;
    EXPECT_EQ(got.kernel_us, want.kernel_us)
        << std::hexfloat << got.kernel_us;
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.params_digest, want.params_digest);
}

TEST(ScriptCacheKey, EveryEmissionInputMissesAndInputValuesHit)
{
    for (const Variant v :
         {Variant::ScaleFactor, Variant::LookupRow, Variant::Label,
          Variant::LossNode, Variant::AddNOrder, Variant::Rpw,
          Variant::ParamOffset, Variant::InputValues}) {
        SCOPED_TRACE(variantName(v));
        // Warm: the base batch is cached when the variant runs.
        KeyRig warm;
        ScriptCache warm_cache;
        ASSERT_FALSE(warm.run(Variant::Base, warm_cache).hit);
        ASSERT_TRUE(warm.run(Variant::Base, warm_cache).hit);
        const Outcome got = warm.run(v, warm_cache);
        EXPECT_EQ(got.hit, v == Variant::InputValues);

        // Cold: the same history, but the variant meets an empty
        // cache, so its script is emitted and validated afresh.
        KeyRig cold;
        ScriptCache base_cache, empty_cache;
        cold.run(Variant::Base, base_cache);
        cold.run(Variant::Base, base_cache);
        const Outcome want = cold.run(v, empty_cache);
        ASSERT_FALSE(want.hit);
        expectSameRun(got, want);
    }
}

/** A program of @p instructions instructions, for budget tests. */
std::unique_ptr<vpps::ValidatedProgram>
programOf(std::size_t instructions)
{
    auto p = std::make_unique<vpps::ValidatedProgram>();
    p->total_instructions = instructions;
    return p;
}

TEST(ScriptCache, InsertNeverRunsPastTheBudget)
{
    // Seven 636 K-instruction programs would hold 4.45 M instructions
    // against the 4 M default: the seventh insert must evict first.
    ScriptCache cache;
    const std::size_t budget = ScriptCache::kDefaultMaxInstructions;
    for (std::uint64_t k = 0; k < 7; ++k) {
        cache.insert(k, programOf(636'000));
        EXPECT_LE(cache.stats().cached_instructions, budget)
            << "after insert " << k;
    }
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // A lone program over the budget is still cached...
    cache.insert(100, programOf(budget + 1));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().cached_instructions, budget + 1);
    EXPECT_EQ(cache.stats().evictions, 2u);
    // ...and the next insert evicts it.
    cache.insert(101, programOf(1));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().cached_instructions, 1u);

    // Inserting a cached key keeps the first program and counts once.
    const auto first = cache.insert(102, programOf(5));
    EXPECT_EQ(cache.insert(102, programOf(5)), first);
    EXPECT_EQ(cache.stats().cached_instructions, 6u);
}

TEST(ScriptCache, HitsPlusMissesEqualBatches)
{
    // Three distinct batches, three passes, through one handle: one
    // lookup per batch, so the first pass misses and the rest hit.
    KeyRig rig;
    ScriptCache cache;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.script_cache = &cache;
    vpps::Handle handle(rig.a, rig.device, opts);
    for (int pass = 0; pass < 3; ++pass)
        for (const Variant v :
             {Variant::Base, Variant::ScaleFactor, Variant::Label}) {
            graph::ComputationGraph cg;
            handle.fb(rig.a, cg, rig.build(cg, v));
        }
    const ScriptCache::Stats s = cache.stats();
    EXPECT_EQ(handle.stats().batches, 9u);
    EXPECT_EQ(s.hits + s.misses, 9u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 3u);
}

TEST(ScriptCache, HeldProgramSurvivesAnotherExecutorsEvictAll)
{
    // A budget of one base program: caching any second program
    // evicts everything. With the learning rate and weight decay at
    // zero every run of the base batch computes the same loss.
    KeyRig rig;
    rig.a.learning_rate = 0.0f;
    rig.a.weight_decay = 0.0f;
    ScriptCache probe;
    const Outcome first = rig.run(Variant::Base, probe);
    ScriptCache cache(probe.stats().cached_instructions);
    ASSERT_FALSE(rig.run(Variant::Base, cache).hit);

    // A batch generated on a hit holds the cached program.
    auto& mem = rig.device.memory();
    const auto mark = mem.mark();
    graph::ComputationGraph cg;
    const graph::Expr loss = rig.build(cg, Variant::Base);
    const vpps::ScriptGenerator gen(rig.a_rpw2, gpusim::HostSpec{});
    const vpps::GeneratedBatch held =
        gen.generate(rig.device, rig.a, cg, loss, &cache);
    ASSERT_NE(held.program, nullptr);

    // Another executor on the shared cache caches a second program,
    // which evicts the base one while `held` is still pending.
    ASSERT_FALSE(rig.run(Variant::ScaleFactor, cache).hit);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    vpps::ScriptExecutor exec(rig.device, 8, &cache);
    const auto r = exec.run(rig.a_rpw2, held, rig.a, cg);
    mem.resetTo(mark);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    std::uint32_t loss_bits = 0;
    std::memcpy(&loss_bits, &r.value().loss, sizeof(loss_bits));
    EXPECT_EQ(loss_bits, first.loss_bits);
    EXPECT_EQ(r.value().kernel_us, first.kernel_us);
    EXPECT_EQ(r.value().instructions, first.instructions);
}

} // namespace

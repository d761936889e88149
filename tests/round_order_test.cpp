/**
 * @file
 * What a run reuses (DESIGN.md section 4.4): the schedule validation
 * computes once per program and every run applies, and the
 * matrix-product prices an executor keeps per kernel. Neither may
 * move a bit: a cache hit computes, charges and traces exactly what
 * the program's first run did, a hung attempt stops, reports and
 * charges as its pins say, and an executor that has priced one kernel
 * charges the next exactly as a fresh executor does.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ios>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "obs/trace.hpp"
#include "train/harness.hpp"
#include "vpps/codegen.hpp"
#include "vpps/script_cache.hpp"
#include "vpps/script_exec.hpp"
#include "vpps/script_gen.hpp"

namespace {

/** A small Tree-LSTM on its own device, as the golden trace uses. */
struct Rig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;

    Rig() { bm = addModel(16); }

    /** Another Tree-LSTM on the same device, of embedding width
     *  @p embed (hidden width 32). */
    std::unique_ptr<models::TreeLstmModel>
    addModel(std::uint32_t embed)
    {
        return std::make_unique<models::TreeLstmModel>(
            bank, vocab, embed, 32, device, param_rng);
    }

    vpps::CompiledKernel
    kernel(const models::TreeLstmModel& tm, int rpw) const
    {
        const graph::Model& m = tm.model();
        return vpps::KernelSpecializer(device.spec())
            .specialize(m, vpps::DistributionPlan::buildAuto(
                               m, device.spec(), vpps::VppsOptions{},
                               rpw));
    }
};

/** Everything one run computes and charges, bit for bit. */
struct Outcome
{
    bool hit = false;        //!< the generator found the program cached
    common::ErrorInfo error; //!< code Ok unless the run failed
    vpps::RunResult result;
    std::vector<double> traffic; //!< loads and stores per space, atomics
    double busy_us = 0.0;        //!< device time the run charged
    std::uint64_t params_digest = 0;
    std::string trace;
};

std::uint32_t
bitsOf(float f)
{
    std::uint32_t b = 0;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

/** The device's traffic since its last resetStats(). */
std::vector<double>
trafficOf(const gpusim::Device& device)
{
    std::vector<double> t;
    const gpusim::TrafficStats& s = device.traffic();
    for (std::size_t i = 0; i < gpusim::TrafficStats::kNumSpaces; ++i) {
        const auto space = static_cast<gpusim::MemSpace>(i);
        t.push_back(s.loadBytes(space));
        t.push_back(s.storeBytes(space));
    }
    t.push_back(s.atomicOps());
    return t;
}

/** Digest of every parameter's value and gradient. */
std::uint64_t
paramsDigest(const gpusim::Device& device, const graph::Model& m)
{
    std::vector<float> flat, grads;
    m.gather(device, graph::ParamBuffer::Value, flat);
    m.gather(device, graph::ParamBuffer::Grad, grads);
    flat.insert(flat.end(), grads.begin(), grads.end());
    return common::fnv1a64(reinterpret_cast<const std::uint8_t*>(flat.data()),
                           flat.size() * sizeof(float));
}

/** Generate batch [0, 4) of @p tm against @p exec's cache and run it
 *  on a device whose clock and counters start from zero. A run on a
 *  device with no fault injector must succeed. */
Outcome
runBatch(Rig& rig, models::TreeLstmModel& tm,
         const vpps::CompiledKernel& kernel, vpps::ScriptExecutor& exec,
         obs::Tracer* tracer)
{
    rig.device.resetStats();
    if (tracer)
        tracer->clear();
    auto& mem = rig.device.memory();
    const auto mark = mem.mark();
    graph::ComputationGraph cg;
    const graph::Expr loss = train::buildSuperGraph(tm, cg, 0, 4);
    const vpps::ScriptGenerator gen(kernel, gpusim::HostSpec{});
    const vpps::GeneratedBatch gb =
        gen.generate(rig.device, tm.model(), cg, loss, &exec.cache());
    Outcome out;
    out.hit = gb.program != nullptr;
    const auto r = exec.run(kernel, gb, tm.model(), cg);
    mem.resetTo(mark);
    out.traffic = trafficOf(rig.device);
    out.busy_us = rig.device.busyUs();
    if (tracer)
        out.trace = tracer->canonicalText();
    if (!r.ok()) {
        EXPECT_NE(rig.device.faults(), nullptr) << r.status().toString();
        out.error = r.error();
        return out;
    }
    out.result = r.value();
    out.params_digest = paramsDigest(rig.device, tm.model());
    return out;
}

void
expectSameResult(const vpps::RunResult& got, const vpps::RunResult& want)
{
    EXPECT_EQ(got.kernel_us, want.kernel_us)
        << std::hexfloat << got.kernel_us;
    EXPECT_EQ(got.extra_kernel_us, want.extra_kernel_us)
        << std::hexfloat << got.extra_kernel_us;
    EXPECT_EQ(bitsOf(got.loss), bitsOf(want.loss));
    EXPECT_EQ(got.mean_vpp_us, want.mean_vpp_us)
        << std::hexfloat << got.mean_vpp_us;
    EXPECT_EQ(got.makespan_us, want.makespan_us)
        << std::hexfloat << got.makespan_us;
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.weight_reloads, want.weight_reloads);
}

TEST(RoundReplay, ReplayedRunsMatchTheLiveRunBitwise)
{
    // One batch three times through one executor and its cache: the
    // first run misses, validates and schedules the program; the next
    // two hit and run the cached program. Parameters and gradients
    // are restored before each run, so a functional run computes the
    // same loss and update every time.
    for (const int threads : {1, 4, 8})
        for (const bool functional : {true, false})
            for (const bool traced : {true, false}) {
                SCOPED_TRACE(testing::Message()
                             << threads << " host threads, functional "
                             << functional << ", traced " << traced);
                Rig rig;
                rig.device.setFunctional(functional);
                obs::Tracer tracer{1u << 20};
                if (traced)
                    rig.device.installTracer(&tracer);
                const vpps::CompiledKernel kernel = rig.kernel(*rig.bm, 2);
                vpps::ScriptExecutor exec(rig.device, threads);
                const graph::Model& m = rig.bm->model();
                std::vector<float> values, grads;
                m.gather(rig.device, graph::ParamBuffer::Value, values);
                m.gather(rig.device, graph::ParamBuffer::Grad, grads);

                std::vector<Outcome> runs;
                for (int i = 0; i < 3; ++i) {
                    m.scatter(rig.device, graph::ParamBuffer::Value,
                              values);
                    m.scatter(rig.device, graph::ParamBuffer::Grad, grads);
                    runs.push_back(runBatch(rig, *rig.bm, kernel, exec,
                                            traced ? &tracer : nullptr));
                }
                EXPECT_FALSE(runs[0].hit);
                if (traced) {
                    EXPECT_EQ(tracer.dropped(), 0u);
                    EXPECT_FALSE(runs[0].trace.empty());
                }
                for (int i = 1; i < 3; ++i) {
                    SCOPED_TRACE(testing::Message() << "run " << i + 1);
                    EXPECT_TRUE(runs[i].hit);
                    expectSameResult(runs[i].result, runs[0].result);
                    EXPECT_EQ(runs[i].traffic, runs[0].traffic);
                    if (functional) {
                        EXPECT_EQ(runs[i].params_digest,
                                  runs[0].params_digest);
                    }
                    EXPECT_TRUE(runs[i].trace == runs[0].trace)
                        << "the replayed run traced other events";
                }
            }
}

TEST(RoundReplay, ReplicasSharingOneCacheRunAlike)
{
    // Two identical replicas on one shared cache run their first batch
    // at once, on two host threads, so both may validate the program
    // and both then run the one copy the cache keeps, at once; then
    // each runs the batch again from the cache. With the learning rate
    // at zero every run computes and charges alike.
    Rig a, b;
    for (Rig* r : {&a, &b}) {
        r->bm->model().learning_rate = 0.0f;
        r->bm->model().weight_decay = 0.0f;
    }
    vpps::ScriptCache cache;
    const vpps::CompiledKernel ka = a.kernel(*a.bm, 2);
    const vpps::CompiledKernel kb = b.kernel(*b.bm, 2);
    vpps::ScriptExecutor ea(a.device, 4, &cache);
    vpps::ScriptExecutor eb(b.device, 4, &cache);
    Outcome first_a, first_b;
    std::thread ta([&] { first_a = runBatch(a, *a.bm, ka, ea, nullptr); });
    std::thread tb([&] { first_b = runBatch(b, *b.bm, kb, eb, nullptr); });
    ta.join();
    tb.join();
    const Outcome again_a = runBatch(a, *a.bm, ka, ea, nullptr);
    const Outcome again_b = runBatch(b, *b.bm, kb, eb, nullptr);
    EXPECT_TRUE(again_a.hit);
    EXPECT_TRUE(again_b.hit);
    EXPECT_EQ(cache.stats().entries, 1u);
    for (const Outcome* o :
         {&std::as_const(first_b), &again_a, &again_b}) {
        expectSameResult(o->result, first_a.result);
        EXPECT_EQ(o->traffic, first_a.traffic);
    }
}

TEST(RoundReplay, HungAttemptIsPinned)
{
    // A device whose injector hangs one VPP at every launch: the
    // attempt stops at the hung VPP's lost Signal, reports where, and
    // charges the work done before the stall. Then the injector goes,
    // and the program the hung attempt cached runs once without
    // faults: it must charge exactly what a fresh executor charges.
    for (const int threads : {1, 8})
        for (const bool traced : {true, false}) {
            SCOPED_TRACE(testing::Message() << threads
                                            << " host threads, traced "
                                            << traced);
            Rig rig;
            obs::Tracer tracer{1u << 20};
            obs::Tracer* const t = traced ? &tracer : nullptr;
            if (traced)
                rig.device.installTracer(&tracer);
            gpusim::FaultPlan hang_only;
            hang_only.hang_rate = 1.0;
            rig.device.installFaults(hang_only);
            const vpps::CompiledKernel kernel = rig.kernel(*rig.bm, 2);
            vpps::ScriptExecutor exec(rig.device, threads);
            const graph::Model& m = rig.bm->model();
            std::vector<float> values, grads;
            m.gather(rig.device, graph::ParamBuffer::Value, values);
            m.gather(rig.device, graph::ParamBuffer::Grad, grads);
            auto restore = [&] {
                m.scatter(rig.device, graph::ParamBuffer::Value, values);
                m.scatter(rig.device, graph::ParamBuffer::Grad, grads);
            };

            const Outcome hung = runBatch(rig, *rig.bm, kernel, exec, t);
            EXPECT_EQ(hung.error.code, common::ErrorCode::HungVpp);
            EXPECT_EQ(hung.error.vpp, 42);
            EXPECT_EQ(hung.error.pc, 29);
            EXPECT_EQ(hung.error.barrier, 8);
            EXPECT_EQ(hung.error.message,
                      "VPP hung (lost signal); 160 VPP(s) stuck: "
                      "vpp 0 at pc 29 on barrier 8 (0/25 signals); "
                      "vpp 1 at pc 29 on barrier 8 (0/25 signals); "
                      "vpp 2 at pc 29 on barrier 8 (0/25 signals); "
                      "vpp 3 at pc 29 on barrier 8 (0/25 signals); "
                      "vpp 4 at pc 29 on barrier 8 (0/25 signals); "
                      "vpp 5 at pc 29 on barrier 8 (0/25 signals); "
                      "... 154 more");
            EXPECT_EQ(hung.busy_us, 0x1.e50d8d8d8d8dfp+5)
                << std::hexfloat << hung.busy_us;
            // Loads and stores per space in MemSpace order (Weights,
            // WeightGrads, Params, ParamGrads, Activations, ActGrads,
            // Script, Workspace), then atomics.
            EXPECT_EQ(hung.traffic,
                      (std::vector<double>{
                          0x1.75p+15, 0, 0, 0, 0, 0, 0, 0,
                          0x1.324p+16, 0x1.5ep+13, 0, 0, 0x1.a51p+17, 0,
                          0, 0, 0}));
            if (traced) {
                EXPECT_EQ(tracer.dropped(), 0u);
                EXPECT_EQ(std::count(hung.trace.begin(), hung.trace.end(),
                                     '\n'),
                          199);
                EXPECT_EQ(common::fnv1a64(reinterpret_cast<const std::uint8_t*>(
                                              hung.trace.data()),
                                          hung.trace.size()),
                          16602638004300550976ull);
            }

            rig.device.clearFaults();
            restore();
            const Outcome cached = runBatch(rig, *rig.bm, kernel, exec, t);
            EXPECT_TRUE(cached.hit);
            vpps::ScriptExecutor fresh(rig.device, threads);
            restore();
            const Outcome want = runBatch(rig, *rig.bm, kernel, fresh, t);
            EXPECT_FALSE(want.hit);
            expectSameResult(cached.result, want.result);
            EXPECT_EQ(cached.busy_us, want.busy_us);
            EXPECT_EQ(cached.traffic, want.traffic);
            EXPECT_EQ(cached.params_digest, want.params_digest);
            EXPECT_TRUE(cached.trace == want.trace)
                << "the cached program traced other events";
        }
}

TEST(PriceTable, RepricesWhenTheKernelChanges)
{
    // One executor runs the same batch under an rpw-1 plan, an rpw-2
    // plan, and the rpw-2 plan again after SMs are disabled; then a
    // model whose matrices differ from the first only in their
    // columns, so that its rpw-2 plan has the same digest. Each run
    // must charge exactly what a fresh executor, which has priced
    // nothing yet, charges.
    Rig rig;
    rig.device.setFunctional(false);
    const auto wide = rig.addModel(24);
    const vpps::CompiledKernel rpw1 = rig.kernel(*rig.bm, 1);
    const vpps::CompiledKernel rpw2 = rig.kernel(*rig.bm, 2);
    const vpps::CompiledKernel wide2 = rig.kernel(*wide, 2);
    ASSERT_NE(rpw1.plan.digest(), rpw2.plan.digest());
    ASSERT_EQ(wide2.plan.digest(), rpw2.plan.digest());

    vpps::ScriptExecutor kept(rig.device, 1);
    auto expectFreshCharges = [&](models::TreeLstmModel& tm,
                                  const vpps::CompiledKernel& k) {
        const Outcome got = runBatch(rig, tm, k, kept, nullptr);
        vpps::ScriptExecutor fresh(rig.device, 1);
        const Outcome want = runBatch(rig, tm, k, fresh, nullptr);
        expectSameResult(got.result, want.result);
        EXPECT_EQ(got.traffic, want.traffic);
    };
    {
        SCOPED_TRACE("rpw 1");
        expectFreshCharges(*rig.bm, rpw1);
    }
    {
        SCOPED_TRACE("rpw 2");
        expectFreshCharges(*rig.bm, rpw2);
    }
    rig.device.disableSms(16);
    {
        SCOPED_TRACE("rpw 2 after disableSms");
        expectFreshCharges(*rig.bm, rpw2);
    }
    {
        SCOPED_TRACE("wider columns, same plan digest");
        expectFreshCharges(*wide, wide2);
    }
}

} // namespace

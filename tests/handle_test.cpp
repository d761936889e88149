/**
 * @file
 * Contract tests for the vpps::Handle user API: construction-time
 * JIT, stats accounting, the profile-guided mode's kernel rotation,
 * and option validation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

struct HandleRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{101};
    data::Vocab vocab{200};
    data::Treebank bank{vocab, 16, data_rng, 8.0, 4, 12};
    common::Rng param_rng{102};
    models::TreeLstmModel model{bank, vocab, 32, 48, device,
                                param_rng};

    float
    trainOne(vpps::Handle& handle, std::size_t start,
             std::size_t batch = 2)
    {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(model, cg, start, batch);
        return handle.fb(model.model(), cg, loss);
    }
};

TEST(Handle, RequiresAllocatedModel)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 1u << 20);
    graph::Model model;
    model.addWeightMatrix("W", 8, 8);
    auto r = vpps::Handle::tryCreate(model, device,
                                     vpps::VppsOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), common::ErrorCode::InvalidArgument);
    EXPECT_DEATH(vpps::Handle(model, device, vpps::VppsOptions{}),
                 "allocated");
}

TEST(Handle, FixedRpwCompilesExactlyOneKernel)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 3;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    EXPECT_EQ(handle.kernel().plan.rpw(), 3);
    EXPECT_GT(handle.jitSeconds(), 0.0);
    EXPECT_FALSE(handle.tuneResult().has_value())
        << "no tuner in fixed-rpw mode";
}

TEST(Handle, ProfileGuidedModeRotatesThenLocks)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 0; // profile-guided
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    EXPECT_EQ(handle.kernel().plan.rpw(), 1)
        << "profiling starts at rpw 1";
    std::size_t trained = 0;
    int max_seen = 1;
    while (!handle.tuneResult() && trained < 2048) {
        rig.trainOne(handle, trained);
        trained += 2;
        max_seen = std::max(max_seen, handle.kernel().plan.rpw());
    }
    ASSERT_TRUE(handle.tuneResult().has_value())
        << "tuner must converge";
    EXPECT_GT(max_seen, 1) << "tuner must actually try larger rpw";
    const int picked = handle.tuneResult()->best_rpw;
    EXPECT_EQ(handle.kernel().plan.rpw(), picked);
    // Further training stays on the winner.
    rig.trainOne(handle, trained);
    EXPECT_EQ(handle.kernel().plan.rpw(), picked);
}

TEST(Handle, StatsAccumulateAndReset)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    for (int i = 0; i < 3; ++i)
        rig.trainOne(handle, static_cast<std::size_t>(i) * 2);
    const auto& s = handle.stats();
    EXPECT_EQ(s.batches, 3u);
    EXPECT_GT(s.graph_us, 0.0);
    EXPECT_GT(s.fwd_sched_us, 0.0);
    EXPECT_GT(s.bwd_sched_us, 0.0);
    EXPECT_GT(s.transfer_us, 0.0);
    EXPECT_GT(s.kernel_us, 0.0);
    EXPECT_GT(s.instructions, 0u);
    EXPECT_GT(s.nodes, 0u);
    EXPECT_GT(s.wall_us, 0.0);
    // Pipelined wall time can never beat the GPU-only lower bound or
    // exceed the fully serialized sum.
    EXPECT_GE(s.wall_us, s.gpuUs() * 0.999);
    EXPECT_LE(s.wall_us, (s.cpuUs() + s.gpuUs()) * 1.001);

    handle.resetStats();
    EXPECT_EQ(handle.stats().batches, 0u);
    EXPECT_DOUBLE_EQ(handle.stats().wall_us, 0.0);
}

TEST(Handle, PoolIsRecycledBetweenBatches)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    rig.trainOne(handle, 0);
    const auto used_after_first = rig.device.memory().used();
    for (int i = 1; i < 4; ++i)
        rig.trainOne(handle, static_cast<std::size_t>(i) * 2);
    EXPECT_EQ(rig.device.memory().used(), used_after_first)
        << "per-batch allocations must not leak from the pool";
}

TEST(Handle, SyncIsIdempotent)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    rig.trainOne(handle, 0);
    const float a = handle.sync_get_latest_loss();
    const float b = handle.sync_get_latest_loss();
    EXPECT_FLOAT_EQ(a, b);
    EXPECT_TRUE(std::isfinite(a));
}

TEST(Handle, KernelSourceIsExposedForInspection)
{
    HandleRig rig;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    vpps::Handle handle(rig.model.model(), rig.device, opts);
    EXPECT_FALSE(handle.kernel().source.empty());
    EXPECT_NE(handle.kernel().source.find("reg_cache"),
              std::string::npos);
}

TEST(Handle, TimingOnlyFbLeavesParametersUntouched)
{
    // A timing-only device charges every kernel's time and traffic
    // but runs no float math: not in the script and not in the
    // weight-matrix update after it, so even a large learning rate
    // and weight decay leave every parameter bitwise as it was.
    for (const bool cached : {true, false}) {
        SCOPED_TRACE(cached ? "gradients cached" : "gradients uncached");
        HandleRig rig;
        rig.device.setFunctional(false);
        graph::Model& model = rig.model.model();
        model.learning_rate = 0.5f;
        model.weight_decay = 0.1f;
        vpps::VppsOptions opts;
        opts.rpw = 2;
        opts.cache_gradients = cached;
        vpps::Handle handle(model, rig.device, opts);
        ASSERT_EQ(handle.kernel().plan.gradientsCached(), cached);

        auto values = [&] {
            std::vector<float> out;
            for (graph::ParamId id = 0; id < model.numParams(); ++id) {
                const auto& p = model.param(id);
                const float* v = rig.device.memory().data(p.value);
                out.insert(out.end(), v, v + p.shape.size());
            }
            return out;
        };
        const std::vector<float> before = values();
        rig.trainOne(handle, 0);
        rig.trainOne(handle, 2);
        const std::vector<float> after = values();
        ASSERT_EQ(after.size(), before.size());
        EXPECT_EQ(std::memcmp(after.data(), before.data(),
                              before.size() * sizeof(float)),
                  0);
    }
}

} // namespace

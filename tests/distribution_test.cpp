/** @file Unit tests for the weight-matrix distribution plan
 *  (Section III-A1, Fig 4, Eq 1). */
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "vpps/distribution.hpp"

namespace {

using vpps::DistributionPlan;
using vpps::VppsOptions;

struct DistRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 64u << 20};
    graph::Model model;
    common::Rng rng{1};

    explicit DistRig(std::uint32_t rows, std::uint32_t cols,
                     int n_matrices = 2)
    {
        for (int i = 0; i < n_matrices; ++i)
            model.addWeightMatrix("W" + std::to_string(i), rows,
                                  cols);
        model.allocate(device, rng);
    }
};

TEST(Distribution, Eq1PartitionGeometry)
{
    DistRig rig(256, 256);
    auto plan = DistributionPlan::tryBuild(
        rig.model, rig.device.spec(), 2, 1, true);
    ASSERT_TRUE(plan.has_value());
    // Eq 1: P_size = TBSize(256) x rpw(2) x ceil(256/32)(8) = 4096.
    EXPECT_EQ(plan->partitionSizeElems(), 4096u);
    EXPECT_EQ(plan->regsPerThreadPerPartition(), 16);
    // Footnote 6: 255 addressable - 31 interp - 32 vector = 192.
    EXPECT_EQ(plan->cacheRegsPerThread(), 192);
    EXPECT_EQ(plan->partitionsPerCta(), 192 / 16);
}

TEST(Distribution, Footnote6MaxRpwExample)
{
    // "a model with row_max = 1024 and one CTA per SM can have a
    // maximum rpw of six": 6 x ceil(1024/32) = 192 regs exactly.
    DistRig rig(64, 1024, 1);
    EXPECT_TRUE(DistributionPlan::tryBuild(rig.model,
                                           rig.device.spec(), 6, 1,
                                           true)
                    .has_value());
    EXPECT_FALSE(DistributionPlan::tryBuild(rig.model,
                                            rig.device.spec(), 7, 1,
                                            true)
                     .has_value())
        << "rpw 7 needs 224 regs/partition > 192 budget";
}

TEST(Distribution, EveryRowCachedExactlyOnce)
{
    // In-place Outer relies on this for the gradient slices: each VPP
    // accumulates straight into the rows of p.grad it caches, so no
    // row may have two owners or none. Checked at every rpw the budget
    // allows and at one and two CTAs per SM.
    DistRig rig(300, 128, 3); // rows not divisible by most rpw
    VppsOptions opts;
    const int max_rpw =
        DistributionPlan::maxRpw(rig.model, rig.device.spec(), opts);
    int plans = 0;
    for (int rpw = 1; rpw <= max_rpw; ++rpw) {
        for (int ctas : {1, 2}) {
            auto plan = DistributionPlan::tryBuild(
                rig.model, rig.device.spec(), rpw, ctas, true);
            if (!plan)
                continue; // over the register budget at this CTA count
            ++plans;
            for (graph::ParamId m : rig.model.weightMatrices()) {
                for (bool grad : {false, true}) {
                    std::vector<int> covered(300, 0);
                    for (int vpp = 0; vpp < plan->numVpps(); ++vpp)
                        for (const auto& s : plan->slices(vpp, m, grad))
                            for (std::uint32_t r = s.first_row;
                                 r < s.first_row + s.num_rows; ++r)
                                ++covered[r];
                    for (int c : covered)
                        EXPECT_EQ(c, 1) << "every row in exactly one warp"
                                        << " (rpw " << rpw << ", " << ctas
                                        << " CTAs, grad " << grad << ")";
                }
            }
        }
    }
    EXPECT_GE(plans, 2 * 7) << "rpw 1..7 fit at one and two CTAs";
}

TEST(Distribution, RoundRobinBalancesCtas)
{
    DistRig rig(512, 256, 4);
    auto plan = DistributionPlan::tryBuild(
        rig.model, rig.device.spec(), 2, 2, true);
    ASSERT_TRUE(plan.has_value());
    // Cached bytes per VPP must be near-uniform (Fig 4's goal).
    double min_b = 1e18, max_b = 0.0;
    for (int vpp = 0; vpp < plan->numVpps(); ++vpp) {
        min_b = std::min(min_b, plan->cachedWeightBytes(vpp));
        max_b = std::max(max_b, plan->cachedWeightBytes(vpp));
    }
    EXPECT_LE(max_b - min_b, 2.0 * 2 * 256 * 4)
        << "imbalance bounded by one rpw-row block";
}

TEST(Distribution, ConsecutiveBlocksSpreadAcrossCtas)
{
    DistRig rig(512, 256, 1);
    auto plan = DistributionPlan::tryBuild(
        rig.model, rig.device.spec(), 2, 2, true);
    ASSERT_TRUE(plan.has_value());
    // A 512-row matrix at rpw 2 has 256 blocks; with 160 VPPs the
    // matrix must engage every VPP (maximum matvec parallelism).
    EXPECT_EQ(plan->vppsOf(0, false).size(),
              static_cast<std::size_t>(plan->numVpps()));
}

TEST(Distribution, AutoPrefersTwoCtasWhenModelFits)
{
    DistRig small(256, 256, 4); // ~1 MB
    VppsOptions opts;
    auto plan = DistributionPlan::buildAuto(small.model,
                                            small.device.spec(), opts,
                                            2);
    EXPECT_EQ(plan.ctasPerSm(), 2);
    EXPECT_TRUE(plan.gradientsCached());
}

TEST(Distribution, AutoFallsBackToOneCtaUnderPressure)
{
    // ~14 matrices of 384x384 with gradients exceed the 2-CTA budget
    // but fit one CTA per SM -- the Fig 9 hidden-384 situation.
    gpusim::Device device(gpusim::DeviceSpec{}, 96u << 20);
    graph::Model model;
    for (int i = 0; i < 13; ++i)
        model.addWeightMatrix("W" + std::to_string(i), 384, 384);
    common::Rng rng(2);
    model.allocate(device, rng);
    VppsOptions opts;
    auto plan =
        DistributionPlan::buildAuto(model, device.spec(), opts, 2);
    EXPECT_EQ(plan.ctasPerSm(), 1);
    EXPECT_TRUE(plan.gradientsCached());
}

TEST(Distribution, AutoDropsGradientCachingWhenNecessary)
{
    // Weights that fit alone but not doubled: force the GEMM
    // strategy of Section III-C2.
    gpusim::Device device(gpusim::DeviceSpec{}, 96u << 20);
    graph::Model model;
    for (int i = 0; i < 7; ++i)
        model.addWeightMatrix("W" + std::to_string(i), 1024, 512);
    common::Rng rng(3);
    model.allocate(device, rng);
    VppsOptions opts;
    auto plan =
        DistributionPlan::buildAuto(model, device.spec(), opts, 2);
    EXPECT_FALSE(plan.gradientsCached());
}

TEST(Distribution, OversizedModelIsRecoverable)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 128u << 20);
    graph::Model model;
    for (int i = 0; i < 24; ++i)
        model.addWeightMatrix("W" + std::to_string(i), 1024, 1024);
    common::Rng rng(4);
    model.allocate(device, rng);
    VppsOptions opts;
    auto plan =
        DistributionPlan::tryBuildAuto(model, device.spec(), opts, 1);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), common::ErrorCode::OutOfMemory);
    EXPECT_NE(plan.status().toString().find("do not fit"),
              std::string::npos);
}

TEST(Distribution, ModelWithoutWeightMatricesIsRecoverable)
{
    gpusim::Device device(gpusim::DeviceSpec{}, 1u << 20);
    graph::Model model;
    model.addBias("b", 8);
    common::Rng rng(4);
    model.allocate(device, rng);
    VppsOptions opts;
    EXPECT_FALSE(
        DistributionPlan::tryBuild(model, device.spec(), 1, 1, true)
            .has_value());
    auto plan =
        DistributionPlan::tryBuildAuto(model, device.spec(), opts, 1);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(),
              common::ErrorCode::InvalidArgument);
}

TEST(Distribution, MaxRpwShrinksWithWiderRows)
{
    DistRig narrow(64, 128, 1);
    DistRig wide(64, 1024, 1);
    VppsOptions opts;
    EXPECT_GT(
        DistributionPlan::maxRpw(narrow.model, narrow.device.spec(),
                                 opts),
        DistributionPlan::maxRpw(wide.model, wide.device.spec(),
                                 opts));
}

TEST(Distribution, GradientSlicesMirrorWeightRows)
{
    DistRig rig(128, 64, 2);
    auto plan = DistributionPlan::tryBuild(
        rig.model, rig.device.spec(), 4, 2, true);
    ASSERT_TRUE(plan.has_value());
    // Gradient copies occupy their own slots; total rows match.
    for (graph::ParamId m : rig.model.weightMatrices()) {
        std::uint32_t w_rows = 0, g_rows = 0;
        for (int vpp = 0; vpp < plan->numVpps(); ++vpp) {
            w_rows += plan->rowsOn(vpp, m, false);
            g_rows += plan->rowsOn(vpp, m, true);
        }
        EXPECT_EQ(w_rows, 128u);
        EXPECT_EQ(g_rows, 128u);
    }
    EXPECT_GT(plan->slotUtilization(), 0.0);
    EXPECT_LE(plan->slotUtilization(), 1.0);
    EXPECT_DOUBLE_EQ(plan->totalCachedBytes(),
                     2.0 * 2 * 128 * 64 * 4);
}

/** Parameterized sweep: plans stay valid across the rpw range. */
class RpwSweepTest : public testing::TestWithParam<int>
{
};

TEST_P(RpwSweepTest, PlanCoversAllRowsAtAnyRpw)
{
    DistRig rig(256, 256, 3);
    auto plan = DistributionPlan::tryBuild(
        rig.model, rig.device.spec(), GetParam(), 2, true);
    ASSERT_TRUE(plan.has_value());
    std::uint32_t rows = 0;
    for (int vpp = 0; vpp < plan->numVpps(); ++vpp)
        rows += plan->rowsOn(vpp, 0, false);
    EXPECT_EQ(rows, 256u);
    EXPECT_EQ(plan->rpw(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Rpw1To8, RpwSweepTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace

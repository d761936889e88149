/** @file Unit tests for the profile-guided tuner (Section III-A1)
 *  and the host/device asynchrony pipeline (Section III-C1). */
#include <gtest/gtest.h>

#include "vpps/pipeline.hpp"
#include "vpps/tuner.hpp"

namespace {

TEST(Tuner, ClimbsWhileImprovingAndStopsOnDegradation)
{
    vpps::ProfileGuidedTuner tuner(/*max_rpw=*/8,
                                   /*batches_per_candidate=*/2);
    // rpw 1 measures 100us, rpw 2 measures 80us, rpw 3 degrades.
    const double means[] = {100.0, 80.0, 90.0};
    for (double m : means) {
        ASSERT_FALSE(tuner.done());
        tuner.record(m);
        tuner.record(m);
    }
    ASSERT_TRUE(tuner.done());
    EXPECT_EQ(tuner.result().best_rpw, 2);
    ASSERT_EQ(tuner.result().profile.size(), 3u);
    EXPECT_EQ(tuner.result().profile[1].first, 2);
    EXPECT_DOUBLE_EQ(tuner.result().profile[1].second, 80.0);
    // Once done, the candidate stays locked.
    EXPECT_EQ(tuner.candidate(), 2);
    tuner.record(1.0);
    EXPECT_EQ(tuner.candidate(), 2);
}

TEST(Tuner, RunsToMaxRpwWhenMonotonicallyImproving)
{
    vpps::ProfileGuidedTuner tuner(3, 1);
    tuner.record(30.0);
    tuner.record(20.0);
    EXPECT_FALSE(tuner.done());
    tuner.record(10.0);
    ASSERT_TRUE(tuner.done());
    EXPECT_EQ(tuner.result().best_rpw, 3);
}

TEST(Tuner, AveragesOverConfiguredBatchCount)
{
    vpps::ProfileGuidedTuner tuner(4, 3);
    tuner.record(10.0);
    tuner.record(20.0);
    EXPECT_EQ(tuner.candidate(), 1) << "still measuring candidate 1";
    tuner.record(30.0);
    EXPECT_EQ(tuner.candidate(), 2);
    EXPECT_FALSE(tuner.done());
}

TEST(Tuner, SingleCandidateIsImmediatelyDone)
{
    vpps::ProfileGuidedTuner tuner(1);
    EXPECT_TRUE(tuner.done());
    EXPECT_EQ(tuner.result().best_rpw, 1);
}

TEST(Pipeline, SynchronousSumsBothStages)
{
    vpps::AsyncPipeline pipe(/*async=*/false);
    pipe.submit({100.0, 50.0});
    pipe.submit({100.0, 50.0});
    EXPECT_DOUBLE_EQ(pipe.makespanUs(), 300.0);
}

TEST(Pipeline, AsyncOverlapsCpuWithGpu)
{
    vpps::AsyncPipeline pipe(/*async=*/true);
    // GPU-bound: cpu 40, gpu 100 each. After the first batch fills
    // the pipe, per-batch cost approaches max(cpu, gpu) = 100.
    for (int i = 0; i < 10; ++i)
        pipe.submit({40.0, 100.0});
    EXPECT_DOUBLE_EQ(pipe.makespanUs(), 40.0 + 10 * 100.0);
}

TEST(Pipeline, AsyncDegeneratesToCpuBoundWhenHostSlower)
{
    vpps::AsyncPipeline pipe(true);
    for (int i = 0; i < 4; ++i)
        pipe.submit({100.0, 10.0});
    // CPU never waits on the device; last kernel tail remains.
    EXPECT_DOUBLE_EQ(pipe.makespanUs(), 4 * 100.0 + 10.0);
}

TEST(Pipeline, SyncDrainsTheDevice)
{
    vpps::AsyncPipeline pipe(true);
    pipe.submit({10.0, 100.0});
    EXPECT_LT(pipe.cpuClockUs(), pipe.makespanUs());
    pipe.sync();
    EXPECT_DOUBLE_EQ(pipe.cpuClockUs(), pipe.makespanUs());
}

TEST(Pipeline, AsyncOverlapsWhatSyncSerializes)
{
    // Async: each batch's host work hides under the previous kernel
    // (50 | 120, 140 | 170, 170 | 250). Sync: every stage in series.
    const std::vector<vpps::BatchTiming> batches = {
        {50, 70}, {90, 30}, {20, 80}};
    vpps::AsyncPipeline async(true), sync(false);
    for (const auto& b : batches) {
        async.submit(b);
        sync.submit(b);
    }
    EXPECT_DOUBLE_EQ(async.makespanUs(), 250.0);
    EXPECT_DOUBLE_EQ(sync.makespanUs(), 340.0);
}

TEST(Pipeline, ResetClearsClocks)
{
    vpps::AsyncPipeline pipe(true);
    pipe.submit({10, 10});
    pipe.reset();
    EXPECT_DOUBLE_EQ(pipe.makespanUs(), 0.0);
    EXPECT_DOUBLE_EQ(pipe.cpuClockUs(), 0.0);
}

} // namespace

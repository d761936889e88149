/** @file Unit tests for the on-disk kernel cache (Section IV-F
 *  extension). */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "vpps/handle.hpp"
#include "vpps/kernel_cache.hpp"

namespace {

struct CacheRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{61};
    data::Vocab vocab{200};
    data::Treebank bank{vocab, 8, data_rng, 8.0, 4, 12};
    common::Rng param_rng{62};
    models::TreeLstmModel model{bank, vocab, 32, 48, device,
                                param_rng};
};

struct TempDir
{
    std::string path;

    TempDir()
    {
        path = (std::filesystem::temp_directory_path() /
                ("vpps_cache_test_" +
                 std::to_string(::getpid()) + "_" +
                 std::to_string(counter++)))
                   .string();
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    static int counter;
};

int TempDir::counter = 0;

TEST(KernelCache, MissThenHitRoundTripsTheKernel)
{
    CacheRig rig;
    TempDir dir;
    vpps::VppsOptions opts;
    opts.rpw = 2;
    const vpps::KernelCache cache(dir.path);

    EXPECT_FALSE(cache.load(rig.model.model(), rig.device.spec(),
                            opts, 2)
                     .has_value())
        << "cold cache must miss";

    auto plan = vpps::DistributionPlan::buildAuto(
        rig.model.model(), rig.device.spec(), opts, 2);
    const vpps::KernelSpecializer specializer(rig.device.spec());
    const auto kernel =
        specializer.specialize(rig.model.model(), plan);
    cache.store(kernel, rig.model.model(), rig.device.spec());

    const auto hit = cache.load(rig.model.model(), rig.device.spec(),
                                opts, 2);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->source, kernel.source);
    EXPECT_EQ(hit->num_instantiations, kernel.num_instantiations);
    // A hit skips program compilation but still pays module load
    // ("only intermediate PTX can be stored", Section IV-F).
    EXPECT_DOUBLE_EQ(hit->prog_compile_s, 0.0);
    EXPECT_DOUBLE_EQ(hit->module_load_s, kernel.module_load_s);
    // The rebuilt plan matches the original configuration.
    EXPECT_EQ(hit->plan.rpw(), kernel.plan.rpw());
    EXPECT_EQ(hit->plan.ctasPerSm(), kernel.plan.ctasPerSm());
}

/** Store one kernel into @p dir and @return the entry's path. */
std::string
storeOneEntry(CacheRig& rig, const vpps::KernelCache& cache,
              const std::string& dir)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    auto plan = vpps::DistributionPlan::buildAuto(
        rig.model.model(), rig.device.spec(), opts, 2);
    const vpps::KernelSpecializer specializer(rig.device.spec());
    cache.store(specializer.specialize(rig.model.model(), plan),
                rig.model.model(), rig.device.spec());
    EXPECT_TRUE(
        cache.load(rig.model.model(), rig.device.spec(), opts, 2)
            .has_value());
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        return entry.path().string();
    return "";
}

TEST(KernelCache, TruncatedEntryIsAMiss)
{
    CacheRig rig;
    TempDir dir;
    const vpps::KernelCache cache(dir.path);
    const std::string path = storeOneEntry(rig, cache, dir.path);
    ASSERT_FALSE(path.empty());
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 1);
    vpps::VppsOptions opts;
    opts.rpw = 2;
    EXPECT_FALSE(cache.load(rig.model.model(), rig.device.spec(), opts,
                            2)
                     .has_value())
        << "an entry torn by one byte must miss, not load";
}

TEST(KernelCache, FlippedByteIsAMiss)
{
    CacheRig rig;
    TempDir dir;
    const vpps::KernelCache cache(dir.path);
    const std::string path = storeOneEntry(rig, cache, dir.path);
    ASSERT_FALSE(path.empty());
    {
        // Byte 26 lies inside module_load_s, which a hit would charge
        // as the handle's JIT time.
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(26);
        const char byte = static_cast<char>(f.get() ^ 0x10);
        f.seekp(26);
        f.put(byte);
    }
    vpps::VppsOptions opts;
    opts.rpw = 2;
    EXPECT_FALSE(cache.load(rig.model.model(), rig.device.spec(), opts,
                            2)
                     .has_value())
        << "an entry with a flipped byte must miss, not load";
}

TEST(KernelCache, KeyDependsOnShapesAndConfig)
{
    CacheRig rig;
    const auto base = vpps::KernelCache::keyFor(
        rig.model.model(), rig.device.spec(), 2, 2, true);
    EXPECT_NE(base, vpps::KernelCache::keyFor(rig.model.model(),
                                              rig.device.spec(), 3, 2,
                                              true));
    EXPECT_NE(base, vpps::KernelCache::keyFor(rig.model.model(),
                                              rig.device.spec(), 2, 1,
                                              true));
    EXPECT_NE(base, vpps::KernelCache::keyFor(rig.model.model(),
                                              rig.device.spec(), 2, 2,
                                              false));
    // Identical shape multisets share a key (instantiation sharing).
    CacheRig twin;
    EXPECT_EQ(base, vpps::KernelCache::keyFor(
                        twin.model.model(), twin.device.spec(), 2, 2,
                        true));
}

TEST(KernelCache, HandleUsesTheCacheAcrossSessions)
{
    TempDir dir;
    double cold_jit = 0.0;
    {
        CacheRig rig;
        vpps::VppsOptions opts;
        opts.rpw = 2;
        opts.kernel_cache_dir = dir.path;
        vpps::Handle handle(rig.model.model(), rig.device, opts);
        cold_jit = handle.jitSeconds();
        EXPECT_GT(cold_jit, 1.0);
    }
    {
        // "Second training session": same model shapes, fresh rig.
        CacheRig rig;
        vpps::VppsOptions opts;
        opts.rpw = 2;
        opts.kernel_cache_dir = dir.path;
        vpps::Handle handle(rig.model.model(), rig.device, opts);
        EXPECT_LT(handle.jitSeconds(), 0.5 * cold_jit)
            << "warm start pays module load only";
        EXPECT_GT(handle.jitSeconds(), 0.0);

        // The cached kernel must still train correctly.
        graph::ComputationGraph cg;
        std::vector<graph::Expr> losses;
        for (std::uint32_t i = 0; i < 2; ++i)
            losses.push_back(rig.model.buildLoss(cg, i));
        opts.async = false;
        const float loss = handle.fb(
            rig.model.model(), cg,
            graph::sumLosses(std::move(losses)));
        (void)loss;
        EXPECT_TRUE(std::isfinite(handle.sync_get_latest_loss()));
    }
}

} // namespace

/**
 * @file
 * The robustness headline: under a seeded *transient* fault plan --
 * detected script/weight ECC errors, failed launches, hung VPPs,
 * allocation failures, corrupted loss readbacks -- training completes
 * with final parameters bitwise identical to a fault-free run,
 * because every injected fault is a detected fault and every recovery
 * is retry/rollback/replay of deterministic work. Also covered:
 * recovery counters match the injector's log category for category,
 * permanent faults degrade gracefully to the GEMM-fallback kernel,
 * checkpointed training replays deterministically, the NaN guard
 * contains poisoned batches, and the env-var plumbing installs
 * injectors.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "data/ner_corpus.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/bi_tagger.hpp"
#include "models/rvnn.hpp"
#include "models/td_lstm.hpp"
#include "models/tree_lstm.hpp"
#include "serve/arrival.hpp"
#include "serve/server.hpp"
#include "train/data_parallel.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

struct Factory
{
    gpusim::Device device;
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    data::NerCorpus corpus{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};

    Factory() : device(gpusim::DeviceSpec{}, 48u << 20)
    {
        // These tests script their fault plans explicitly; an inherited
        // soak environment (tools/check.sh) must not add faults to the
        // "clean" reference runs.
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
    }

    std::unique_ptr<models::BenchmarkModel>
    make(const std::string& app)
    {
        if (app == "Tree-LSTM")
            return std::make_unique<models::TreeLstmModel>(
                bank, vocab, 16, 32, device, param_rng);
        if (app == "BiLSTM")
            return std::make_unique<models::BiLstmTagger>(
                corpus, vocab, 16, 24, 16, device, param_rng);
        if (app == "TD-LSTM")
            return std::make_unique<models::TdLstmModel>(
                bank, vocab, 32, device, param_rng);
        return std::make_unique<models::RvnnModel>(bank, vocab, 32,
                                                   device, param_rng);
    }
};

/** Recovery-friendly knobs: fixed rpw (so the clean and faulty runs
 *  execute identical kernels) and a relaunch budget deep enough that
 *  a transient plan never has to degrade the specialization. */
vpps::VppsOptions
recoveryOptions()
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.max_relaunch_attempts = 8;
    return opts;
}

/** All parameter values as raw bits, for bitwise comparison. */
std::vector<float>
paramBits(models::BenchmarkModel& bm, const gpusim::Device& device)
{
    return train::captureCheckpoint(bm.model(), device, 0).params;
}

void
expectBitwiseEqual(const std::vector<float>& a,
                   const std::vector<float>& b, const std::string& what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what << ": parameters diverged";
}

void
expectCountersMatchInjectorLog(const vpps::RecoveryStats& rec,
                               const gpusim::FaultLog& log)
{
    EXPECT_EQ(rec.script_retransmits, log.script_ecc);
    EXPECT_EQ(rec.weight_reloads, log.weight_ecc);
    EXPECT_EQ(rec.relaunches, log.launch_failures);
    EXPECT_EQ(rec.hang_recoveries, log.hangs);
    EXPECT_EQ(rec.alloc_retries, log.alloc_failures);
    EXPECT_EQ(rec.loss_retries, log.loss_ecc);
}

float
trainBatches(vpps::Handle& handle, models::BenchmarkModel& bm,
             int batches)
{
    float loss = 0.0f;
    for (int step = 0; step < batches; ++step) {
        graph::ComputationGraph cg;
        loss = handle.fb(
            bm.model(), cg,
            train::buildSuperGraph(
                bm, cg, static_cast<std::size_t>(step) * 2, 2));
    }
    return loss;
}

TEST(FaultRecovery, TransientFaultsAreBitwiseTransparent)
{
    for (const char* app :
         {"Tree-LSTM", "BiLSTM", "TD-LSTM", "RvNN"}) {
        Factory clean_f, faulty_f;
        auto cm = clean_f.make(app);
        auto fm = faulty_f.make(app);

        const auto opts = recoveryOptions();
        vpps::Handle clean(cm->model(), clean_f.device, opts);
        faulty_f.device.installFaults(
            gpusim::FaultPlan::uniform(0.15, 33));
        vpps::Handle faulty(fm->model(), faulty_f.device, opts);

        for (int step = 0; step < 6; ++step) {
            graph::ComputationGraph cg_c;
            const float lc = clean.fb(
                cm->model(), cg_c,
                train::buildSuperGraph(
                    *cm, cg_c, static_cast<std::size_t>(step) * 2, 2));
            graph::ComputationGraph cg_f;
            const float lf = faulty.fb(
                fm->model(), cg_f,
                train::buildSuperGraph(
                    *fm, cg_f, static_cast<std::size_t>(step) * 2, 2));
            ASSERT_TRUE(std::isfinite(lf)) << app;
            // Recovered batches reproduce the loss bit for bit.
            EXPECT_EQ(lc, lf) << app << " step " << step;
        }

        expectBitwiseEqual(paramBits(*cm, clean_f.device),
                           paramBits(*fm, faulty_f.device), app);

        const auto& rec = faulty.stats().recovery;
        const auto& log = faulty_f.device.faults()->injected();
        EXPECT_GT(log.total(), 0u)
            << app << ": the plan injected nothing -- raise the rate";
        expectCountersMatchInjectorLog(rec, log);
        EXPECT_EQ(rec.degradations, 0u)
            << app << ": transient faults must not degrade";
        EXPECT_EQ(clean.stats().recovery.totalRecoveries(), 0u);
        // Recovery costs simulated time, never correctness.
        EXPECT_GT(faulty.stats().wall_us, clean.stats().wall_us);
        EXPECT_GT(rec.recovery_us, 0.0);
    }
}

TEST(FaultRecovery, FaultyRunMatchesAtEightThreads)
{
    Factory clean_f, faulty1_f, faulty8_f;
    auto cm = clean_f.make("Tree-LSTM");
    auto f1 = faulty1_f.make("Tree-LSTM");
    auto f8 = faulty8_f.make("Tree-LSTM");

    auto opts = recoveryOptions();
    opts.host_threads = 1;
    vpps::Handle clean(cm->model(), clean_f.device, opts);
    faulty1_f.device.installFaults(
        gpusim::FaultPlan::uniform(0.2, 91));
    vpps::Handle faulty1(f1->model(), faulty1_f.device, opts);
    opts.host_threads = 8;
    faulty8_f.device.installFaults(
        gpusim::FaultPlan::uniform(0.2, 91));
    vpps::Handle faulty8(f8->model(), faulty8_f.device, opts);

    trainBatches(clean, *cm, 4);
    trainBatches(faulty1, *f1, 4);
    trainBatches(faulty8, *f8, 4);

    // Fault draws all happen in serial host code, so the injected
    // sequence -- and everything downstream of it -- is identical at
    // every host thread count.
    EXPECT_EQ(faulty1_f.device.faults()->injected().total(),
              faulty8_f.device.faults()->injected().total());
    expectBitwiseEqual(paramBits(*f1, faulty1_f.device),
                       paramBits(*f8, faulty8_f.device),
                       "threads 1 vs 8 under faults");
    expectBitwiseEqual(paramBits(*cm, clean_f.device),
                       paramBits(*f8, faulty8_f.device),
                       "clean vs faulty at 8 threads");
}

TEST(FaultRecovery, PermanentLaunchFaultsDegradeToFallback)
{
    Factory f;
    auto m = f.make("Tree-LSTM");
    gpusim::FaultPlan plan;
    plan.permanent_launch_faults = true;
    f.device.installFaults(plan);

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(m->model(), f.device, opts);
    ASSERT_TRUE(handle.kernel().plan.gradientsCached())
        << "test premise: the preferred kernel caches gradients";

    const float loss = trainBatches(handle, *m, 2);
    EXPECT_TRUE(std::isfinite(loss));

    // The gradient-cached kernel can never launch; after the relaunch
    // budget the handle must settle on the uncached-gradient fallback
    // and still make training progress.
    EXPECT_FALSE(handle.kernel().plan.gradientsCached());
    const auto& rec = handle.stats().recovery;
    EXPECT_GE(rec.degradations, 1u);
    EXPECT_GE(rec.relaunches,
              static_cast<std::uint64_t>(opts.max_relaunch_attempts));
    EXPECT_EQ(rec.relaunches,
              f.device.faults()->injected().launch_failures);
}

TEST(FaultRecovery, RelaunchBackoffIsPinned)
{
    // Three failed launches (50, 100 and 200 us of backoff after
    // them), then the GEMM fallback: the recovery time, bit for bit.
    Factory f;
    auto m = f.make("Tree-LSTM");
    gpusim::FaultPlan plan;
    plan.permanent_launch_faults = true;
    f.device.installFaults(plan);

    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    vpps::Handle handle(m->model(), f.device, opts);
    trainBatches(handle, *m, 2);

    const auto& rec = handle.stats().recovery;
    EXPECT_EQ(rec.relaunches, 3u);
    EXPECT_EQ(rec.degradations, 1u);
    EXPECT_EQ(rec.recovery_us, 0x1.7p+8) // 368 = 350 + 3 launches
        << std::hexfloat << rec.recovery_us;
}

TEST(FaultRecovery, CheckpointRestoreReplaysDeterministically)
{
    Factory clean_f, faulty_f;
    auto cm = clean_f.make("RvNN");
    auto fm = faulty_f.make("RvNN");

    auto opts = recoveryOptions();
    vpps::Handle clean(cm->model(), clean_f.device, opts);
    train::measureVpps(clean, *cm, 12, 2);

    // A brutal plan: 70% of script transfers corrupted with only one
    // retransmit allowed, so whole batches fail out of fbTry() and
    // the harness must restore checkpoints and replay.
    gpusim::FaultPlan plan;
    plan.seed = 13;
    plan.script_ecc_rate = 0.7;
    opts.max_retransmits = 1;
    faulty_f.device.installFaults(plan);
    vpps::Handle faulty(fm->model(), faulty_f.device, opts);

    train::RecoveryOptions ropts;
    ropts.checkpoint_every_batches = 2;
    ropts.max_restores = 200;
    const auto rep = train::measureVppsRecoverable(
        faulty, faulty_f.device, *fm, 12, 2, ropts);

    EXPECT_TRUE(rep.completed) << rep.last_error;
    EXPECT_GT(rep.restores, 0u)
        << "the plan never failed a batch -- raise the rate";
    EXPECT_GT(rep.replayed_batches + rep.restores, 0u);
    EXPECT_GE(rep.checkpoints, 2u);
    EXPECT_NE(rep.last_error.find("ecc_script"), std::string::npos)
        << rep.last_error;

    expectBitwiseEqual(paramBits(*cm, clean_f.device),
                       paramBits(*fm, faulty_f.device),
                       "checkpoint-recovered run");
}

TEST(FaultRecovery, NanGuardSkipsPoisonedBatches)
{
    Factory f;
    auto m = f.make("Tree-LSTM");
    vpps::Handle handle(m->model(), f.device, recoveryOptions());

    // Poison one recurrent weight: every batch's loss becomes NaN.
    graph::Model& model = m->model();
    const graph::ParamId w = model.weightMatrices().front();
    f.device.memory().data(model.param(w).value)[0] =
        std::numeric_limits<float>::quiet_NaN();
    const auto poisoned = paramBits(*m, f.device);

    trainBatches(handle, *m, 2);

    const auto& rec = handle.stats().recovery;
    EXPECT_EQ(rec.skipped_batches, 2u);
    EXPECT_EQ(rec.rollbacks, 2u);
    EXPECT_EQ(handle.stats().batches, 2u);
    // The rollback restored the exact pre-batch parameters: the NaN
    // stayed where it was put and spread no further.
    expectBitwiseEqual(poisoned, paramBits(*m, f.device),
                       "NaN-guarded parameters");
}

TEST(FaultRecovery, ServingPathCountersReconcileUnderFaults)
{
    // The serving loop drives batches through the same fbTry ladder
    // as training; with a transient plan and 8-thread host
    // interpretation, the server's request accounting and the
    // handle's recovery counters must both reconcile exactly against
    // the injector's log -- no fault handled twice, none dropped.
    Factory f;
    auto m = f.make("Tree-LSTM");
    f.device.installFaults(gpusim::FaultPlan::uniform(0.15, 57));
    auto opts = recoveryOptions();
    opts.host_threads = 8;
    vpps::Handle handle(m->model(), f.device, opts);

    serve::ServerConfig cfg;
    serve::Server server(f.device, *m, handle, cfg);
    server.calibrate();
    const double batch_us = server.serviceUs(cfg.batch.max_batch);

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.6 * server.capacityPerSec();
    ac.count = 40;
    ac.deadline_slack_us = 60.0 * batch_us;
    ac.low_deadline_slack_us = 60.0 * batch_us;
    ac.seed = 19;
    server.run(serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us, m->datasetSize()));

    const auto& c = server.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_GT(c.completed, 0u);
    EXPECT_GT(c.batches, 0u);

    const auto& log = f.device.faults()->injected();
    EXPECT_GT(log.total(), 0u)
        << "the plan injected nothing -- raise the rate";
    expectCountersMatchInjectorLog(handle.stats().recovery, log);
}

TEST(FaultRecovery, EnvPlumbingInstallsInjectors)
{
    {
        Factory f; // clears any inherited fault env first
        auto m = f.make("RvNN");
        setenv("VPPS_FAULT_RATE", "0.1", 1);
        setenv("VPPS_FAULT_SEED", "7", 1);
        vpps::Handle handle(m->model(), f.device, recoveryOptions());
        ASSERT_NE(f.device.faults(), nullptr);
        EXPECT_EQ(f.device.faults()->plan().seed, 7u);
        EXPECT_DOUBLE_EQ(f.device.faults()->plan().script_ecc_rate,
                         0.1);
    }
    unsetenv("VPPS_FAULT_RATE");
    unsetenv("VPPS_FAULT_SEED");

    {
        // No env, no option: fault-free.
        Factory f;
        auto m = f.make("RvNN");
        vpps::Handle handle(m->model(), f.device, recoveryOptions());
        EXPECT_EQ(f.device.faults(), nullptr);
    }
}

TEST(FaultRecovery, EnvSeedMustBeAWholeU64Decimal)
{
    // A seed that is not wholly a u64 decimal arms no plan (with a
    // warning naming the variable), as a rate outside (0, 1) does:
    // "abc" used to arm seed 0 and "7x" seed 7.
    Factory f; // clears any inherited fault env first
    auto m = f.make("RvNN");
    setenv("VPPS_FAULT_RATE", "0.1", 1);
    setenv("VPPS_FAULT_SEED", "abc", 1);
    {
        vpps::Handle handle(m->model(), f.device, recoveryOptions());
        EXPECT_EQ(f.device.faults(), nullptr);
    }
    for (const char* bad : {"7x", "", " 7", "+7", "-1", "0x10",
                            "18446744073709551616"}) {
        setenv("VPPS_FAULT_SEED", bad, 1);
        EXPECT_FALSE(gpusim::FaultPlan::fromEnv().has_value())
            << "'" << bad << "'";
    }
    setenv("VPPS_FAULT_SEED", "18446744073709551615", 1);
    const auto plan = gpusim::FaultPlan::fromEnv();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->seed, 18446744073709551615ull);
    unsetenv("VPPS_FAULT_RATE");
    unsetenv("VPPS_FAULT_SEED");
}

/** One data-parallel replica backed by the seeded Factory, with an
 *  optional fault plan installed before the driver builds handles. */
class DpReplica : public train::ReplicaContext
{
  public:
    explicit DpReplica(const gpusim::FaultPlan* plan = nullptr)
        : bm_(f_.make("Tree-LSTM"))
    {
        if (plan) f_.device.installFaults(*plan);
    }

    gpusim::Device& device() override { return f_.device; }
    models::BenchmarkModel& bench() override { return *bm_; }

  private:
    Factory f_;
    std::unique_ptr<models::BenchmarkModel> bm_;
};

train::DataParallelOptions
dpOptions(std::size_t replicas)
{
    train::DataParallelOptions opts;
    opts.replicas = replicas;
    opts.microbatches = 8;
    opts.microbatch_size = 2;
    opts.steps = 3;
    opts.topology =
        gpusim::Topology::uniform(8, gpusim::LinkType::NVLink);
    opts.vpps = recoveryOptions();
    return opts;
}

/**
 * Fault layering (ISSUE 9): PR-2 transient faults injected into a
 * data-parallel run recover bitwise -- losses and final parameters
 * match the fault-free run exactly -- because each microbatch's
 * recovery happens inside fbGradTry before its gradient enters the
 * canonical reduction, and fault draws never consult the collective
 * layer. A timing-only device stall layered on top must likewise
 * leave the arithmetic untouched while costing simulated time.
 */
TEST(FaultRecovery, DataParallelTransientFaultsAreBitwiseTransparent)
{
    auto clean = train::trainDataParallel(
        [](std::size_t) { return std::make_unique<DpReplica>(); },
        dpOptions(2));
    ASSERT_TRUE(clean.ok()) << clean.status().toString();
    ASSERT_TRUE(clean.value().completed)
        << clean.value().status.toString();
    EXPECT_EQ(clean.value().recoveries, 0u);

    // Per-replica transient plans (distinct seeds), plus a transient
    // whole-device stall on replica 1.
    auto faulty = train::trainDataParallel(
        [](std::size_t r) {
            gpusim::FaultPlan plan =
                gpusim::FaultPlan::uniform(0.1, 40 + r);
            if (r == 1)
            {
                plan.stall_at_us = 200.0;
                plan.stall_duration_us = 5'000.0;
            }
            return std::make_unique<DpReplica>(&plan);
        },
        dpOptions(2));
    ASSERT_TRUE(faulty.ok()) << faulty.status().toString();
    const train::DataParallelReport& rep = faulty.value();
    ASSERT_TRUE(rep.completed) << rep.status.toString();
    EXPECT_GT(rep.recoveries, 0u)
        << "the plan injected nothing -- raise the rate";

    expectBitwiseEqual(clean.value().losses, rep.losses,
                       "data-parallel faulty losses");
    expectBitwiseEqual(clean.value().final_params, rep.final_params,
                       "data-parallel faulty params");
    EXPECT_TRUE(rep.replicas_identical);
    // Recovery and the stall cost simulated time, never correctness.
    EXPECT_GT(rep.total_us, clean.value().total_us);
}

/** A wedged replica ends the run with a structured DeviceLost error
 *  (completed == false), never a panic or a silent wrong answer. */
TEST(FaultRecovery, DataParallelDeviceLossSurfacesStructured)
{
    auto run = train::trainDataParallel(
        [](std::size_t r) {
            gpusim::FaultPlan plan;
            if (r == 1) plan.wedge_at_us = 100.0;
            return std::make_unique<DpReplica>(&plan);
        },
        dpOptions(2));
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const train::DataParallelReport& rep = run.value();
    EXPECT_FALSE(rep.completed);
    EXPECT_EQ(rep.status.code(), common::ErrorCode::DeviceLost);
    EXPECT_LT(rep.steps_done, 3u);
}

} // namespace

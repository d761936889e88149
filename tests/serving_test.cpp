/**
 * @file
 * The serving layer's acceptance suite: (a) below capacity with no
 * faults every request completes on time; (b) at 2x capacity the
 * server stays up, sheds/rejects explicitly, and every *admitted*
 * request still meets its deadline; (c) permanent primary-kernel
 * faults trip the circuit breaker onto the GEMM fallback, and the
 * breaker closes again once the faults clear. All of it bitwise
 * reproducible across host interpreter thread counts, because every
 * decision runs in simulated time.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "serve/arrival.hpp"
#include "serve/server.hpp"
#include "vpps/handle.hpp"

namespace {

/** One served Tree-LSTM model on a fresh simulated device. */
struct ServeRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    explicit ServeRig(int host_threads = 1, int relaunch_budget = 2)
    {
        // Serving tests script their own fault plans; an inherited
        // soak environment must not perturb the clean runs.
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        vpps::VppsOptions opts;
        opts.rpw = 2;
        opts.async = false;
        opts.degrade_on_failure = false; // the breaker owns routing
        opts.host_threads = host_threads;
        opts.max_relaunch_attempts = relaunch_budget;
        handle = std::make_unique<vpps::Handle>(bm->model(), device,
                                                opts);
    }

    serve::Server
    makeServer(const serve::ServerConfig& cfg = {})
    {
        return serve::Server(device, *bm, *handle, cfg);
    }
};

/** Everything the acceptance criteria compare bitwise. */
struct RunDigest
{
    serve::ServerCounters counters;
    std::vector<double> latencies;
    double sim_end_us = 0.0;
    serve::BreakerReport breaker;
};

void
expectBitwiseIdentical(const RunDigest& a, const RunDigest& b,
                       const std::string& what)
{
    EXPECT_EQ(a.counters.arrivals, b.counters.arrivals) << what;
    EXPECT_EQ(a.counters.admitted, b.counters.admitted) << what;
    EXPECT_EQ(a.counters.completed, b.counters.completed) << what;
    EXPECT_EQ(a.counters.timed_out, b.counters.timed_out) << what;
    EXPECT_EQ(a.counters.failed, b.counters.failed) << what;
    EXPECT_EQ(a.counters.rejected_queue_full,
              b.counters.rejected_queue_full)
        << what;
    EXPECT_EQ(a.counters.rejected_infeasible,
              b.counters.rejected_infeasible)
        << what;
    EXPECT_EQ(a.counters.shed, b.counters.shed) << what;
    EXPECT_EQ(a.counters.retries, b.counters.retries) << what;
    EXPECT_EQ(a.counters.batches, b.counters.batches) << what;
    EXPECT_EQ(a.counters.fallback_batches,
              b.counters.fallback_batches)
        << what;
    EXPECT_DOUBLE_EQ(a.sim_end_us, b.sim_end_us) << what;
    ASSERT_EQ(a.latencies.size(), b.latencies.size()) << what;
    EXPECT_EQ(std::memcmp(a.latencies.data(), b.latencies.data(),
                          a.latencies.size() * sizeof(double)),
              0)
        << what << ": latency traces diverged";
    EXPECT_EQ(a.breaker.trips, b.breaker.trips) << what;
    EXPECT_EQ(a.breaker.probes, b.breaker.probes) << what;
}

/** Calibrated batch service time for this rig, us (probe server). */
double
calibratedBatchUs(ServeRig& rig, const serve::ServerConfig& cfg)
{
    serve::Server probe = rig.makeServer(cfg);
    probe.calibrate();
    return probe.serviceUs(cfg.batch.max_batch);
}

/** The load scenario shared by the capacity tests: a window of one
 *  full-batch service time, deadlines 25 windows out. */
serve::ServerConfig
scaledConfig(double batch_us)
{
    serve::ServerConfig cfg;
    cfg.batch.window_us = batch_us;
    return cfg;
}

RunDigest
runLoadScenario(int host_threads, double load_multiplier,
                std::size_t count)
{
    ServeRig rig(host_threads);
    serve::ServerConfig probe_cfg;
    const double batch_us = calibratedBatchUs(rig, probe_cfg);
    const serve::ServerConfig cfg = scaledConfig(batch_us);

    serve::Server server = rig.makeServer(cfg);
    server.calibrate();
    const double cap = server.capacityPerSec();

    serve::ArrivalConfig ac;
    ac.rate_per_sec = load_multiplier * cap;
    ac.count = count;
    ac.deadline_slack_us = 25.0 * batch_us;
    ac.low_deadline_slack_us = 30.0 * batch_us;
    ac.low_fraction = 0.25;
    ac.seed = 5;
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us, rig.bm->datasetSize());
    server.run(arrivals);

    const auto rep = server.report();
    RunDigest d;
    d.counters = rep.counters;
    d.latencies = server.latencies();
    d.sim_end_us = rep.sim_end_us;
    d.breaker = rep.breaker;
    return d;
}

TEST(Serving, UnderloadCompletesEverythingOnTime)
{
    const RunDigest d = runLoadScenario(1, 0.7, 80);
    const auto& c = d.counters;
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.arrivals, 80u);
    EXPECT_EQ(c.admitted, 80u)
        << "below capacity nothing may be rejected or shed";
    EXPECT_EQ(c.completed, 80u);
    EXPECT_EQ(c.timed_out, 0u);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(c.shed, 0u);
    EXPECT_EQ(c.rejected_queue_full + c.rejected_infeasible, 0u);
    EXPECT_EQ(d.latencies.size(), 80u);
    EXPECT_EQ(d.breaker.trips, 0u);
    const auto stats = serve::latencyStats(d.latencies);
    EXPECT_GT(stats.p50_us, 0.0);
    EXPECT_GE(stats.p99_us, stats.p50_us);
}

TEST(Serving, OverloadShedsExplicitlyAndAdmittedMeetDeadlines)
{
    const RunDigest d = runLoadScenario(1, 2.0, 160);
    const auto& c = d.counters;
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.arrivals, 160u);
    // The server must stay up and keep serving...
    EXPECT_GT(c.completed, 0u);
    // ...while turning the excess away explicitly, never silently.
    EXPECT_GT(c.shed + c.rejected_queue_full + c.rejected_infeasible,
              0u);
    EXPECT_LT(c.admitted, c.arrivals);
    // Admission keeps its promise: whatever it lets in, finishes in
    // time. Misses would be visible counters, not hidden drops.
    EXPECT_EQ(c.timed_out, 0u);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(c.completed, c.admitted);
    // Brown-out engaged: some arrivals saw a degraded level.
    std::uint64_t degraded = 0;
    for (int lvl = 1; lvl < 4; ++lvl)
        degraded += c.arrivals_at_level[lvl];
    EXPECT_GT(degraded, 0u);
}

TEST(Serving, OverloadIsBitwiseReproducibleAcrossHostThreads)
{
    const RunDigest d1 = runLoadScenario(1, 2.0, 160);
    const RunDigest d8 = runLoadScenario(8, 2.0, 160);
    expectBitwiseIdentical(d1, d8, "2x overload, threads 1 vs 8");
}

/** Breaker scenario: permanent launch faults poison the primary
 *  (gradient-cached) kernel; the GEMM fallback is immune. Phase 2
 *  clears the faults and expects the breaker to re-close. */
RunDigest
runBreakerScenario(int host_threads)
{
    ServeRig rig(host_threads);
    gpusim::FaultPlan plan;
    plan.permanent_launch_faults = true;
    rig.device.installFaults(plan);

    // Analytic service prior (calibration probes would fail under
    // permanent faults, which is itself part of the scenario).
    serve::ServerConfig cfg;
    serve::Server sizing = rig.makeServer(cfg);
    const double batch_us = sizing.serviceUs(cfg.batch.max_batch);
    cfg.batch.window_us = batch_us;
    cfg.breaker.failure_threshold = 2;
    // Cooldown longer than phase 1, so the primary is probed only
    // after the operator clears the faults (phase 2).
    cfg.breaker.cooldown_us = 10'000.0 * batch_us;
    cfg.max_retries_high = 1;
    cfg.max_retries_low = 0;

    serve::Server server = rig.makeServer(cfg);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.5 * 8.0e6 / batch_us;
    ac.count = 60;
    ac.deadline_slack_us = 60.0 * batch_us;
    ac.low_deadline_slack_us = 60.0 * batch_us;
    ac.seed = 11;
    const auto phase1 = serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us, rig.bm->datasetSize());
    server.run(phase1);

    const auto mid = server.report();
    EXPECT_TRUE(mid.counters.reconciled());
    EXPECT_GE(mid.breaker.trips, 1u)
        << "permanent primary faults must trip the breaker";
    EXPECT_EQ(mid.breaker.state,
              serve::CircuitBreaker::State::Open);
    EXPECT_EQ(mid.breaker.probes, 0u)
        << "cooldown must outlast phase 1";
    EXPECT_GT(mid.counters.fallback_batches, 0u)
        << "traffic must flow through the fallback while open";
    EXPECT_GT(mid.counters.completed, 0u)
        << "the fallback must actually serve requests";

    // Phase 2: faults repaired; arrivals resume after the cooldown.
    rig.device.clearFaults();
    ac.seed = 12;
    ac.count = 40;
    const auto phase2 = serve::generateOpenLoopArrivals(
        ac, server.nowUs() + cfg.breaker.cooldown_us,
        rig.bm->datasetSize());
    server.run(phase2);

    const auto rep = server.report();
    EXPECT_TRUE(rep.counters.reconciled());
    EXPECT_GE(rep.breaker.probes, 1u)
        << "the half-open state must probe the primary";
    EXPECT_GE(rep.breaker.closes, 1u)
        << "successful probes must re-close the breaker";
    EXPECT_EQ(rep.breaker.state,
              serve::CircuitBreaker::State::Closed);
    EXPECT_EQ(rep.counters.completed + rep.counters.timed_out +
                  rep.counters.failed,
              rep.counters.admitted);

    RunDigest d;
    d.counters = rep.counters;
    d.latencies = server.latencies();
    d.sim_end_us = rep.sim_end_us;
    d.breaker = rep.breaker;
    return d;
}

TEST(Serving, BreakerTripsToFallbackAndRecloses)
{
    runBreakerScenario(1);
}

TEST(Serving, BreakerScenarioIsBitwiseReproducibleAcrossThreads)
{
    const RunDigest d1 = runBreakerScenario(1);
    const RunDigest d8 = runBreakerScenario(8);
    expectBitwiseIdentical(d1, d8, "breaker, threads 1 vs 8");
}

TEST(Serving, ArrivalTraceIsDeterministicAndSorted)
{
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 500.0;
    ac.count = 200;
    ac.low_fraction = 0.3;
    ac.seed = 42;
    const auto a = serve::generateOpenLoopArrivals(ac, 100.0, 16);
    const auto b = serve::generateOpenLoopArrivals(ac, 100.0, 16);
    ASSERT_EQ(a.size(), 200u);
    bool any_low = false, any_high = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
        EXPECT_EQ(a[i].input_index, b[i].input_index);
        EXPECT_EQ(a[i].id, i);
        EXPECT_GT(a[i].deadline_us, a[i].arrival_us);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
        }
        (a[i].cls == serve::RequestClass::Low ? any_low : any_high) =
            true;
    }
    EXPECT_TRUE(any_low);
    EXPECT_TRUE(any_high);
}

TEST(Serving, ArrivalTraceIsPinned)
{
    // Every field of a seeded trace, digested: the generator's draw
    // sequence (gaps, class mix, inputs, deadlines) must not move.
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 500.0;
    ac.count = 200;
    ac.low_fraction = 0.3;
    ac.seed = 42;
    std::vector<std::uint8_t> bytes;
    for (const serve::Request& r :
         serve::generateOpenLoopArrivals(ac, 100.0, 16)) {
        common::putU64(bytes, r.id);
        bytes.push_back(static_cast<std::uint8_t>(r.cls));
        common::putU64(bytes, r.input_index);
        common::putF64(bytes, r.arrival_us);
        common::putF64(bytes, r.deadline_us);
    }
    EXPECT_EQ(bytes.size(), 200u * 33u);
    EXPECT_EQ(common::fnv1a64(bytes), 2374724413914510935ull);
}

TEST(Serving, AdmissionWatermarksFormTheBrownoutLadder)
{
    serve::AdmissionConfig ac;
    ac.queue_capacity = 8;
    ac.shrink_watermark = 2;
    ac.shed_watermark = 4;
    serve::AdmissionController ctl(ac);
    using L = serve::BrownoutLevel;
    EXPECT_EQ(ctl.levelFor(0), L::Normal);
    EXPECT_EQ(ctl.levelFor(2), L::ShrunkWindow);
    EXPECT_EQ(ctl.levelFor(4), L::ShedLowClass);
    EXPECT_EQ(ctl.levelFor(8), L::RejectAll);

    serve::Request high;
    high.cls = serve::RequestClass::High;
    high.deadline_us = 1'000.0;
    serve::Request low = high;
    low.cls = serve::RequestClass::Low;

    using D = serve::AdmissionController::Decision;
    EXPECT_EQ(ctl.decide(high, 0, 0.0, 100.0), D::Admit);
    EXPECT_EQ(ctl.decide(low, 5, 0.0, 100.0), D::Shed);
    EXPECT_EQ(ctl.decide(high, 5, 0.0, 100.0), D::Admit)
        << "shedding only hits the Low class";
    EXPECT_EQ(ctl.decide(high, 8, 0.0, 100.0),
              D::RejectQueueFull);
    // Feasibility: est_start + est_service * safety > deadline.
    EXPECT_EQ(ctl.decide(high, 0, 950.0, 100.0),
              D::RejectInfeasible);
}

TEST(Serving, BreakerStateMachineCountsTransitions)
{
    serve::BreakerConfig bc;
    bc.failure_threshold = 2;
    bc.cooldown_us = 100.0;
    bc.close_successes = 2;
    serve::CircuitBreaker brk(bc);
    using S = serve::CircuitBreaker::State;

    EXPECT_TRUE(brk.usePrimary(0.0));
    brk.onPrimaryFailure(0.0);
    EXPECT_EQ(brk.state(), S::Closed) << "one failure is tolerated";
    brk.onPrimaryFailure(1.0);
    EXPECT_EQ(brk.state(), S::Open);
    EXPECT_EQ(brk.trips(), 1u);
    EXPECT_FALSE(brk.usePrimary(50.0)) << "cooling down";
    EXPECT_TRUE(brk.usePrimary(101.0)) << "half-open probe";
    EXPECT_EQ(brk.state(), S::HalfOpen);
    brk.onPrimaryFailure(102.0);
    EXPECT_EQ(brk.state(), S::Open);
    EXPECT_EQ(brk.reopens(), 1u);
    EXPECT_TRUE(brk.usePrimary(203.0));
    brk.onPrimarySuccess();
    EXPECT_EQ(brk.state(), S::HalfOpen)
        << "needs close_successes in a row";
    EXPECT_TRUE(brk.usePrimary(204.0));
    brk.onPrimarySuccess();
    EXPECT_EQ(brk.state(), S::Closed);
    EXPECT_EQ(brk.closes(), 1u);
    // A success streak interrupted by a failure starts over.
    brk.onPrimaryFailure(300.0);
    brk.onPrimaryFailure(301.0);
    EXPECT_EQ(brk.trips(), 2u);
}

TEST(Serving, BatcherDrainsHighClassFirstAndExpiresDead)
{
    serve::BatchPolicy pol;
    pol.max_batch = 8; // backlog stays partial: window governs
    pol.window_us = 100.0;
    serve::Batcher b(pol);

    auto queued = [](std::uint64_t id, serve::RequestClass cls,
                     double deadline, double enq) {
        serve::Queued q;
        q.req.id = id;
        q.req.cls = cls;
        q.req.deadline_us = deadline;
        q.enqueue_us = enq;
        return q;
    };
    b.enqueue(queued(0, serve::RequestClass::Low, 1e6, 10.0));
    b.enqueue(queued(1, serve::RequestClass::High, 50.0, 20.0));
    b.enqueue(queued(2, serve::RequestClass::High, 1e6, 30.0));
    b.enqueue(queued(3, serve::RequestClass::Low, 1e6, 40.0));
    EXPECT_EQ(b.depth(), 4u);

    // Oldest enqueue (10.0) + window = 110; the backoff gate wins
    // when later.
    EXPECT_DOUBLE_EQ(b.readyAt(serve::BrownoutLevel::Normal, 0.0),
                     110.0);
    EXPECT_DOUBLE_EQ(b.readyAt(serve::BrownoutLevel::Normal, 500.0),
                     500.0);

    const auto dead = b.expire(60.0);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead.front().req.id, 1u);

    const auto batch = b.form(60.0);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].req.id, 2u) << "High drains before Low";
    EXPECT_EQ(batch[1].req.id, 0u);
    EXPECT_EQ(batch[2].req.id, 3u);
    EXPECT_TRUE(b.empty());
}

TEST(Serving, AdmissionSafetyFactorIsPinned)
{
    // The service estimate is padded by 1.25x: 800 us of service
    // starting at t = 0 just fits a 1000 us deadline and misses a
    // 999 us one.
    const serve::AdmissionController ctl;
    serve::Request req;
    req.deadline_us = 1'000.0;
    using D = serve::AdmissionController::Decision;
    EXPECT_EQ(ctl.decide(req, 0, 0.0, 800.0), D::Admit);
    req.deadline_us = 999.0;
    EXPECT_EQ(ctl.decide(req, 0, 0.0, 800.0), D::RejectInfeasible);
}

TEST(Serving, ShrunkWindowIsPinned)
{
    // Brown-out shrinks the default 2000 us window to a quarter.
    const serve::Batcher b;
    EXPECT_EQ(b.windowUs(serve::BrownoutLevel::Normal), 2'000.0);
    EXPECT_EQ(b.windowUs(serve::BrownoutLevel::ShrunkWindow), 500.0);
    EXPECT_EQ(b.windowUs(serve::BrownoutLevel::RejectAll), 500.0);
}

TEST(Serving, RetryBackoffIsPinned)
{
    // The first batch fails on the primary kernel and trips the
    // breaker (threshold 1); its request is retried on the fallback
    // once the retry backoff has passed. A zero batching window
    // leaves the backoff as the only gate, so the clock and the
    // latencies fix it (and the handle's relaunch backoff, which the
    // failed batch's duration includes).
    ServeRig rig;
    gpusim::FaultPlan plan;
    plan.permanent_launch_faults = true;
    rig.device.installFaults(plan);

    serve::ServerConfig cfg;
    cfg.batch.window_us = 0.0;
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.cooldown_us = 1.0e9; // no probe of the primary
    serve::Server server = rig.makeServer(cfg);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 200.0;
    ac.count = 3;
    ac.deadline_slack_us = 1.0e9;
    ac.low_deadline_slack_us = 1.0e9;
    ac.low_fraction = 0.0;
    ac.seed = 3;
    server.run(serve::generateOpenLoopArrivals(
        ac, server.nowUs(), rig.bm->datasetSize()));

    const auto rep = server.report();
    EXPECT_EQ(rep.counters.completed, 3u);
    EXPECT_EQ(rep.counters.retries, 1u);
    EXPECT_EQ(rep.breaker.trips, 1u);
    EXPECT_EQ(server.nowUs(), 0x1.8cebb9cacf19ep+14) // 25402.9
        << std::hexfloat << server.nowUs();
    const std::vector<double> pinned = {0x1.27dd2117c8a7cp+12,
                                        0x1.3312067a9376ap+12,
                                        0x1.3a082af22916p+11};
    ASSERT_EQ(server.latencies().size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i)
        EXPECT_EQ(server.latencies()[i], pinned[i])
            << "latency " << i << ": " << std::hexfloat
            << server.latencies()[i];
}

} // namespace

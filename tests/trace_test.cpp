/**
 * @file
 * The observability layer's determinism contract (DESIGN.md section
 * 4.8), pinned by golden traces: (a) the canonical event stream of a
 * fixed-seed Tree-LSTM training run is byte-identical across host
 * interpreter thread counts and across repeated runs; (b) so is the
 * stream of a fixed-seed serving run; (c) tracing never perturbs a
 * simulated result -- losses and final parameters are bitwise
 * identical with the tracer attached or absent. Plus unit coverage of
 * the tracer itself: content-based canonical ordering, flight-recorder
 * wrap semantics, exact event formatting, and the Chrome-trace
 * exporter's structure.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "durable/stable_store.hpp"
#include "gpusim/topology.hpp"
#include "models/tree_lstm.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/arrival.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

// ---------------------------------------------------------------
// Tracer unit coverage
// ---------------------------------------------------------------

TEST(TraceUnit, CanonicalOrderIsContentBased)
{
    obs::Tracer t;
    // Emitted deliberately out of content order.
    t.instant(3, "b", "x", 10.0);
    t.complete(0, "a", "y", 5.0, 1.0);
    t.counter(obs::kLaneDevice, "dram.load", "weights", 5.0, 64.0);
    t.instant(0, "a", "x", 5.0);

    const auto events = t.canonical();
    ASSERT_EQ(events.size(), 4u);
    // ts first; at equal ts, lane; the device lane sorts after VPPs.
    EXPECT_EQ(events[0].lane, 0);
    EXPECT_DOUBLE_EQ(events[0].ts_us, 5.0);
    EXPECT_EQ(events[1].lane, 0);
    EXPECT_EQ(events[2].lane, obs::kLaneDevice);
    EXPECT_DOUBLE_EQ(events[3].ts_us, 10.0);
    // Complete sorts before Instant at equal (ts, lane).
    EXPECT_EQ(events[0].kind, obs::EventKind::Complete);
    EXPECT_EQ(events[1].kind, obs::EventKind::Instant);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_FALSE(obs::canonicalLess(events[i], events[i - 1]));
}

TEST(TraceUnit, RingWrapKeepsLatestAndCountsDrops)
{
    obs::Tracer t(4);
    for (int i = 0; i < 10; ++i)
        t.instant(0, "c", "tick", static_cast<double>(i));
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto events = t.canonical();
    ASSERT_EQ(events.size(), 4u);
    // Flight recorder: the *oldest* events were overwritten.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(events[i].ts_us,
                         static_cast<double>(6 + i));
}

TEST(TraceUnit, ClearForgetsEventsButKeepsCapacity)
{
    obs::Tracer t(8);
    t.instant(0, "c", "tick", 1.0);
    ASSERT_EQ(t.recorded(), 1u);
    t.clear();
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.canonical().empty());
    EXPECT_EQ(t.shardCapacity(), 8u);
    t.instant(0, "c", "tick", 2.0);
    EXPECT_EQ(t.recorded(), 1u);
}

TEST(TraceUnit, FormatEventIsStableAndExact)
{
    obs::TraceEvent e;
    e.ts_us = 1.5;
    e.dur_us = 0.25;
    e.arg0 = 3.0;
    e.arg1 = 0.0;
    e.ctx = 7;
    e.lane = 2;
    e.kind = obs::EventKind::Complete;
    e.cat = "vpp";
    e.name = "segment";
    EXPECT_EQ(obs::formatEvent(e),
              "1.5 vpp 2 span vpp.segment ctx=7 dur=0.25 a0=3 a1=0");
    // %.17g round-trips doubles exactly; a value with no short
    // decimal form must still format deterministically.
    obs::TraceEvent f = e;
    f.ts_us = 0.1 + 0.2;
    const std::string line = obs::formatEvent(f);
    EXPECT_NE(line.find("0.30000000000000004"), std::string::npos)
        << line;
}

TEST(TraceUnit, CanonicalLessBreaksTiesOnEveryField)
{
    obs::TraceEvent a;
    a.ts_us = 1.0;
    a.lane = 0;
    a.kind = obs::EventKind::Complete;
    a.cat = "c";
    a.name = "n";
    obs::TraceEvent b = a;
    EXPECT_FALSE(obs::canonicalLess(a, b));
    EXPECT_FALSE(obs::canonicalLess(b, a));
    b.ctx = 1;
    EXPECT_TRUE(obs::canonicalLess(a, b));
    b = a;
    b.dur_us = 2.0;
    EXPECT_TRUE(obs::canonicalLess(a, b));
    b = a;
    b.arg0 = 1.0;
    EXPECT_TRUE(obs::canonicalLess(a, b));
    b = a;
    b.arg1 = 1.0;
    EXPECT_TRUE(obs::canonicalLess(a, b));
    EXPECT_FALSE(obs::canonicalLess(b, a));
}

TEST(TraceUnit, ChromeExportEscapesHostileNames)
{
    // cat/name are static strings by convention, but the exporter
    // must stay valid JSON even for hostile ones.
    obs::Tracer t;
    t.instant(0, "quote\"cat", "back\\slash", 1.0);
    t.instant(0, "ctl", "bell\x07name", 2.0);
    const std::string json = obs::chromeTraceJson(t);
    EXPECT_NE(json.find("quote\\\"cat"), std::string::npos) << json;
    EXPECT_NE(json.find("back\\\\slash"), std::string::npos) << json;
    EXPECT_NE(json.find("bell\\u0007name"), std::string::npos)
        << json;
}

TEST(TraceUnit, LaneAndKindNames)
{
    EXPECT_EQ(obs::laneName(3), "vpp 3");
    EXPECT_EQ(obs::laneName(obs::kLaneDevice), "device");
    EXPECT_EQ(obs::laneName(obs::kLaneHost), "host");
    EXPECT_EQ(obs::laneName(obs::kLaneRecovery), "recovery");
    EXPECT_EQ(obs::laneName(obs::kLaneServe), "serve");
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::Complete),
                 "span");
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::Instant),
                 "instant");
    EXPECT_STREQ(obs::eventKindName(obs::EventKind::Counter),
                 "counter");
}

// ---------------------------------------------------------------
// Golden traces
// ---------------------------------------------------------------

/** Fixed-seed Tree-LSTM rig (the fault_recovery_test factory, with
 *  the observability plane attached before any kernel runs). */
struct TraceRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    obs::Tracer tracer{1u << 20};

    explicit TraceRig(bool traced = true)
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        if (traced)
            device.installTracer(&tracer);
    }
};

vpps::VppsOptions
traceOptions(int host_threads)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.host_threads = host_threads;
    return opts;
}

/** Train @p batches fixed batches; returns the per-step losses. */
std::vector<float>
trainSteps(vpps::Handle& handle, models::BenchmarkModel& bm,
           int batches)
{
    std::vector<float> losses;
    for (int step = 0; step < batches; ++step) {
        graph::ComputationGraph cg;
        losses.push_back(handle.fb(
            bm.model(), cg,
            train::buildSuperGraph(
                bm, cg, static_cast<std::size_t>(step) * 2, 2)));
    }
    return losses;
}

std::string
treeLstmGolden(int host_threads)
{
    TraceRig rig;
    vpps::Handle handle(rig.bm->model(), rig.device,
                        traceOptions(host_threads));
    trainSteps(handle, *rig.bm, 3);
    EXPECT_EQ(rig.tracer.dropped(), 0u)
        << "golden comparison needs the complete stream";
    EXPECT_GT(rig.tracer.recorded(), 0u);
    return rig.tracer.canonicalText();
}

TEST(GoldenTrace, TreeLstmRunIsIdenticalAcrossHostThreads)
{
    const std::string serial = treeLstmGolden(1);
    ASSERT_FALSE(serial.empty());
    // The canonical stream covers every instrumented subsystem the
    // training path touches.
    EXPECT_NE(serial.find(" vpp.segment "), std::string::npos);
    EXPECT_NE(serial.find(" barrier.signal "), std::string::npos);
    EXPECT_NE(serial.find(" barrier.wait "), std::string::npos);
    EXPECT_NE(serial.find(" host.decode "), std::string::npos);
    EXPECT_NE(serial.find(" gpu.persistent_kernel "),
              std::string::npos);
    EXPECT_NE(serial.find(" dram.load.weights "), std::string::npos);

    const std::string parallel = treeLstmGolden(8);
    EXPECT_EQ(serial, parallel)
        << "host thread count leaked into the canonical stream";
    // And the whole pipeline is a pure function of its seeds.
    EXPECT_EQ(serial, treeLstmGolden(1));
    EXPECT_EQ(parallel, treeLstmGolden(8));
}

TEST(GoldenTrace, TreeLstmCanonicalTextIsPinned)
{
    // The comparisons above hold for any deterministic stream; this
    // pins the stream itself, so a change to what an event carries
    // (a vpp.segment's first instruction and count, say) fails here.
    const std::string text = treeLstmGolden(1);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 19611);
    EXPECT_EQ(common::fnv1a64(
                  reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
              15909155278065760912ull);
}

TEST(GoldenTrace, TracingDoesNotPerturbTraining)
{
    TraceRig traced(true), bare(false);
    vpps::Handle th(traced.bm->model(), traced.device,
                    traceOptions(2));
    vpps::Handle bh(bare.bm->model(), bare.device, traceOptions(2));

    const auto traced_losses = trainSteps(th, *traced.bm, 3);
    const auto bare_losses = trainSteps(bh, *bare.bm, 3);

    ASSERT_EQ(traced_losses.size(), bare_losses.size());
    EXPECT_EQ(std::memcmp(traced_losses.data(), bare_losses.data(),
                          traced_losses.size() * sizeof(float)),
              0)
        << "tracing changed a loss bit";
    const auto tp = train::captureCheckpoint(traced.bm->model(),
                                             traced.device, 0)
                        .params;
    const auto bp =
        train::captureCheckpoint(bare.bm->model(), bare.device, 0)
            .params;
    ASSERT_EQ(tp.size(), bp.size());
    EXPECT_EQ(
        std::memcmp(tp.data(), bp.data(), tp.size() * sizeof(float)),
        0)
        << "tracing changed a parameter bit";
    // Simulated time is part of the result contract too.
    EXPECT_EQ(th.stats().wall_us, bh.stats().wall_us);
    EXPECT_GT(traced.tracer.recorded(), 0u);
    EXPECT_EQ(bare.tracer.recorded(), 0u);
}

/** A fixed-seed serving run with the tracer attached; returns the
 *  canonical stream. */
std::string
servingGolden(int host_threads)
{
    TraceRig rig;
    auto opts = traceOptions(host_threads);
    opts.degrade_on_failure = false;
    vpps::Handle handle(rig.bm->model(), rig.device, opts);

    serve::ServerConfig cfg;
    serve::Server sizing(rig.device, *rig.bm, handle, cfg);
    sizing.calibrate();
    const double batch_us = sizing.serviceUs(cfg.batch.max_batch);
    cfg.batch.window_us = batch_us;

    serve::Server server(rig.device, *rig.bm, handle, cfg);
    server.calibrate();

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 2.0 * server.capacityPerSec();
    ac.count = 60;
    ac.deadline_slack_us = 25.0 * batch_us;
    ac.low_deadline_slack_us = 30.0 * batch_us;
    ac.low_fraction = 0.25;
    ac.seed = 5;
    server.run(serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us, rig.bm->datasetSize()));
    EXPECT_TRUE(server.counters().reconciled());

    EXPECT_EQ(rig.tracer.dropped(), 0u);
    return rig.tracer.canonicalText();
}

TEST(GoldenTrace, ServingRunIsIdenticalAcrossHostThreads)
{
    const std::string serial = servingGolden(1);
    ASSERT_FALSE(serial.empty());
    // Admission decisions and batch spans are on the serve lane.
    EXPECT_NE(serial.find(" serve.admit "), std::string::npos);
    EXPECT_NE(serial.find(" serve.batch "), std::string::npos);
    EXPECT_NE(serial.find(" serve.complete "), std::string::npos);
    const std::string parallel = servingGolden(8);
    EXPECT_EQ(serial, parallel)
        << "serving trace depends on host thread count";
}

TEST(GoldenTrace, ServingRunIsPinned)
{
    // Pins the serving stream itself: every admission decision,
    // expiry, batch span and completion, with its payload.
    const std::string text = servingGolden(1);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 133319);
    EXPECT_EQ(common::fnv1a64(
                  reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
              7054801687957643606ull);
}

/** One fleet replica: the TraceRig's seeds and model, untraced (the
 *  fleet's own tracer records its lanes). */
struct FleetRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    FleetRig()
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        handle = std::make_unique<vpps::Handle>(bm->model(), device,
                                                fleetRigOptions());
    }

    static vpps::VppsOptions
    fleetRigOptions()
    {
        vpps::VppsOptions opts = traceOptions(1);
        opts.degrade_on_failure = false;
        opts.max_relaunch_attempts = 1;
        return opts;
    }

    serve::FleetReplica
    slot(const char* name, std::size_t node)
    {
        serve::FleetReplica r{name, &device, bm.get(), handle.get()};
        r.node = node;
        return r;
    }
};

/** One seeded run of the fleet pin. */
struct FleetScenario
{
    std::uint64_t arrival_seed;
    double load;            //!< offered load, x three replicas' capacity
    std::size_t arrivals;
    const char* partition;  //!< down window of the controller-r0 link
    double wedge_at[3];     //!< per replica, in service times; < 0: none
};

/**
 * A networked, durable, hedged three-replica fleet under overload, a
 * flaky device (r2), a lossy link (to r2) and a partition of r0's
 * link; with wedges, the whole fleet dies mid-run. Returns the
 * canonical trace of the fleet's own lanes (fleet, replica, net,
 * durable) followed by the metrics registry's JSON dump.
 */
std::pair<std::string, std::string>
fleetGolden(const FleetScenario& sc)
{
    FleetRig r0, r1, r2;
    FleetRig* const rigs[] = {&r0, &r1, &r2};
    double req_us = 0.0;
    {
        graph::ComputationGraph cg;
        auto loss = r0.bm->buildLoss(cg, 0);
        const double before = r0.handle->stats().wall_us;
        EXPECT_TRUE(
            r0.handle->inferTry(r0.bm->model(), cg, loss).ok());
        req_us = r0.handle->stats().wall_us - before;
    }
    for (int i = 0; i < 3; ++i) {
        gpusim::FaultPlan plan;
        if (i == 2) {
            plan.seed = 9;
            plan.launch_fail_rate = 0.3;
        }
        if (sc.wedge_at[i] >= 0.0)
            plan.wedge_at_us = sc.wedge_at[i] * req_us;
        if (i == 2 || sc.wedge_at[i] >= 0.0)
            rigs[i]->device.installFaults(plan);
    }

    obs::Tracer tracer;
    obs::MetricsRegistry mx;
    durable::StableStore store;
    serve::FleetConfig cfg;
    cfg.admission.queue_capacity = 16;
    cfg.admission.shrink_watermark = 8;
    cfg.admission.shed_watermark = 12;
    cfg.hedge_delay_us = req_us;
    cfg.max_failovers_high = 2;
    cfg.max_failovers_low = 0;
    cfg.health.probe_interval_us = 4.0 * req_us;
    cfg.standby_opts = FleetRig::fleetRigOptions();
    cfg.durability.store = &store;
    cfg.durability.wal_sync_batch = 4;
    cfg.durability.checkpoint_every_completions = 8;
    auto topo = gpusim::Topology::parse(
        std::string("devices 4\n"
                    "link 0 1 nvlink\n"
                    "link 0 2 pcie\n"
                    "link 0 3 pcie\n"
                    "link 1 2 nvlink\n"
                    "link 1 3 nvlink\n"
                    "link 2 3 nvlink\n"
                    "linkfault 0 3 loss_ppm=80000\n"
                    "linkfault 0 1 ") +
        sc.partition + "\n");
    EXPECT_TRUE(topo.ok()) << topo.status().toString();
    cfg.net.topology = std::move(topo).value();
    cfg.net.faults.link_faults = cfg.net.topology.linkFaults();
    cfg.net.faults.link_seed = 11;

    serve::Fleet fleet(
        {r0.slot("r0", 1), r1.slot("r1", 2), r2.slot("r2", 3)}, cfg,
        &tracer, &mx);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = sc.load * 3.0e6 / req_us;
    ac.count = sc.arrivals;
    ac.deadline_slack_us = 8.0 * req_us;
    ac.low_deadline_slack_us = 1.3 * 8.0 * req_us;
    ac.low_fraction = 0.25;
    ac.seed = sc.arrival_seed;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, fleet.nowUs() + req_us, r0.bm->datasetSize()));
    EXPECT_TRUE(fleet.counters().reconciled());
    EXPECT_EQ(tracer.dropped(), 0u);
    return {tracer.canonicalText(), mx.json()};
}

TEST(GoldenTrace, FleetRunIsPinned)
{
    // Pins every disposition, instant, payload and registry counter
    // of two faulty fleet runs. Together they reach both settling
    // ladders: completion (in time, late, failed with and without a
    // hedge twin, failed over, finalized, stale after a fence, stale
    // from a wedged device) and fence timeout (hedge loser, zombie
    // and stale fences, live twin, re-route, finalization), plus
    // breaker transitions and the drain of a dead fleet.
    const auto a = fleetGolden(
        {6, 1.0, 80, "down_at_us=4000 down_for_us=8000", {-1, -1, -1}});
    const auto b = fleetGolden(
        {2, 0.8, 60, "down_at_us=35612 down_for_us=46000", {15, 8, 4}});
    const std::string trace = a.first + b.first;
    const std::string metrics = a.second + b.second;
    for (const char* instant :
         {"complete", "timeout", "fail", "lost", "failover",
          "hedge_cancel", "fence", "fence_reroute", "fence_drop"})
        EXPECT_NE(trace.find(std::string(" fleet.") + instant + " "),
                  std::string::npos)
            << "neither run reaches " << instant;
    EXPECT_NE(b.second.find("\"fleet.drained_no_replica\""),
              std::string::npos);
    EXPECT_EQ(std::count(trace.begin(), trace.end(), '\n'), 839);
    EXPECT_EQ(common::fnv1a64(
                  reinterpret_cast<const std::uint8_t*>(trace.data()),
                  trace.size()),
              5082786905270479451ull);
    EXPECT_EQ(common::fnv1a64(reinterpret_cast<const std::uint8_t*>(
                                  metrics.data()),
                              metrics.size()),
              5943342544888132720ull);
}

TEST(GoldenTrace, ChromeExportIsDeterministicAndStructured)
{
    TraceRig rig;
    vpps::Handle handle(rig.bm->model(), rig.device,
                        traceOptions(1));
    trainSteps(handle, *rig.bm, 1);
    ASSERT_EQ(rig.tracer.dropped(), 0u);

    const std::string json = obs::chromeTraceJson(rig.tracer);
    // Same tracer, same bytes.
    EXPECT_EQ(json, obs::chromeTraceJson(rig.tracer));
    // Trace Event Format essentials the viewers rely on.
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos)
        << "lane metadata missing";
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"name\": \"device\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"name\": \"vpp 0\"}"),
              std::string::npos);

    const std::string path = testing::TempDir() + "trace_test.json";
    ASSERT_TRUE(obs::writeChromeTrace(path, rig.tracer).ok());
    std::remove(path.c_str());
    EXPECT_FALSE(
        obs::writeChromeTrace("/nonexistent-dir/t.json", rig.tracer)
            .ok());
}

} // namespace

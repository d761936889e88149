/**
 * @file
 * The metrics registry's contract: exact order statistics (identical
 * to serve::latencyStats), canonical JSON export, and -- the part
 * that makes a dashboard trustworthy -- reconciliation: the registry
 * counters reproduce the simulator's accounting structs exactly.
 * Under a transient-fault serving soak (suite MetricsSoak, carries
 * the soak ctest label) every admission identity holds in the
 * registry, the latency histogram count equals completions, and the
 * recovery-rung counters match the fault injector's log category for
 * category. Fault-free training pins the DRAM side: the last
 * dram.load.weights counter sample equals the TrafficStats total,
 * which equals batches x total weight bytes (Table I's accounting).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "gpusim/faults.hpp"
#include "models/tree_lstm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/arrival.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "train/harness.hpp"
#include "vpps/handle.hpp"

namespace {

using gpusim::MemSpace;

// ---------------------------------------------------------------
// Registry unit coverage
// ---------------------------------------------------------------

TEST(MetricsUnit, CounterAndGaugeBasics)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.counterValue("never.touched"), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("never.touched"), 0.0);

    reg.counter("a").add();
    reg.counter("a").add(4);
    EXPECT_EQ(reg.counterValue("a"), 5u);

    reg.gauge("g").set(2.5);
    reg.gauge("g").add(0.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("g"), 3.0);

    // References are stable across later insertions (std::map).
    obs::Counter& a = reg.counter("a");
    reg.counter("zz");
    reg.counter("aa");
    a.add();
    EXPECT_EQ(reg.counterValue("a"), 6u);
}

TEST(MetricsUnit, HistogramBucketsAndOverflow)
{
    obs::Histogram h({1.0, 2.0, 4.0});
    for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 106.0);
    EXPECT_DOUBLE_EQ(h.mean(), 21.2);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    const auto& counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u); // <= 1: 0.5, 1.0
    EXPECT_EQ(counts[1], 1u); // <= 2: 1.5
    EXPECT_EQ(counts[2], 1u); // <= 4: 3.0
    EXPECT_EQ(counts[3], 1u); // overflow: 100
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    EXPECT_EQ(total, h.count());
}

/** The nearest-rank reference: rank = clamp(ceil(p*n), 1, n). */
double
nearestRank(std::vector<double> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    auto rank =
        static_cast<std::size_t>(std::ceil(p * n));
    rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

TEST(MetricsUnit, PercentileIsNearestRankExact)
{
    obs::Histogram h({10.0});
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0) << "empty histogram";

    // Unsorted insertion order; percentiles must sort internally.
    const std::vector<double> vals = {9.0, 1.0, 7.0, 3.0, 5.0};
    for (const double v : vals)
        h.observe(v);
    for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), nearestRank(vals, p))
            << "p=" << p;
    // Edges: p=0 clamps to the minimum, p=1 is the maximum, and a
    // percentile is always an observed value.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.0);
    // Even n, p=0.5 takes the lower middle (ceil(0.5*4) = 2).
    obs::Histogram h2({10.0});
    for (const double v : {4.0, 2.0, 8.0, 6.0})
        h2.observe(v);
    EXPECT_DOUBLE_EQ(h2.percentile(0.5), 4.0);
    // Single observation answers every percentile.
    obs::Histogram h1({10.0});
    h1.observe(42.0);
    for (const double p : {0.0, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h1.percentile(p), 42.0);
}

TEST(MetricsUnit, LatencyStatsComputedByHistogramMatch)
{
    const std::vector<double> lat = {500.0,  1200.0, 800.0, 300.0,
                                     2500.0, 900.0,  700.0};
    const serve::LatencyStats s = serve::latencyStats(lat);
    obs::Histogram h;
    for (const double v : lat)
        h.observe(v);
    EXPECT_EQ(s.count, h.count());
    EXPECT_DOUBLE_EQ(s.mean_us, h.mean());
    EXPECT_DOUBLE_EQ(s.p50_us, h.percentile(0.50));
    EXPECT_DOUBLE_EQ(s.p95_us, h.percentile(0.95));
    EXPECT_DOUBLE_EQ(s.p99_us, h.percentile(0.99));
    EXPECT_DOUBLE_EQ(s.max_us, h.max());

    const serve::LatencyStats empty = serve::latencyStats({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.p99_us, 0.0);
}

TEST(MetricsUnit, DefaultLatencyBucketsAreAscending)
{
    const auto b = obs::Histogram::defaultLatencyBucketsUs();
    ASSERT_GT(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b.front(), 100.0);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_GT(b[i], b[i - 1]);
    EXPECT_GE(b.back(), 1e8);
}

TEST(MetricsUnit, EmptyHistogramStatisticsAreZero)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    // Both histogram() overloads resolve to the same instance.
    obs::MetricsRegistry reg;
    obs::Histogram& a = reg.histogram("h", {1.0, 2.0});
    obs::Histogram& b = reg.histogram("h");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.bounds().size(), 2u);
}

TEST(MetricsUnit, JsonEscapesHostileNamesAndEmptyRegistry)
{
    obs::MetricsRegistry empty;
    const std::string ej = empty.json();
    EXPECT_NE(ej.find("\"counters\": {}"), std::string::npos) << ej;
    EXPECT_NE(ej.find("\"histograms\": {}"), std::string::npos)
        << ej;

    // Names are dotted identifiers by convention, but the export
    // must stay valid JSON for any name.
    obs::MetricsRegistry reg;
    reg.counter("quote\"name").add();
    reg.counter("back\\slash").add();
    reg.gauge("tab\tnewline\n").set(1.0);
    reg.gauge("bell\x07").set(2.0);
    const std::string j = reg.json();
    EXPECT_NE(j.find("\"quote\\\"name\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"back\\\\slash\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"tab\\tnewline\\n\""), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"bell\\u0007\""), std::string::npos) << j;
}

TEST(MetricsUnit, JsonExportIsCanonicalAndWritable)
{
    obs::MetricsRegistry reg;
    reg.counter("serve.arrivals").add(3);
    reg.counter("recovery.relaunch").add(1);
    reg.gauge("device.busy_us").set(0.1 + 0.2);
    reg.histogram("serve.latency_us", {1000.0}).observe(250.0);

    const std::string j = reg.json();
    EXPECT_EQ(j, reg.json()) << "export must be deterministic";
    // Sorted name order inside each section.
    EXPECT_LT(j.find("\"recovery.relaunch\""),
              j.find("\"serve.arrivals\""));
    EXPECT_NE(j.find("\"device.busy_us\": 0.30000000000000004"),
              std::string::npos)
        << "doubles must round-trip exactly:\n"
        << j;
    EXPECT_NE(j.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(j.find("{\"le\": \"inf\", \"count\": 0}"),
              std::string::npos);

    const std::string path =
        testing::TempDir() + "metrics_test.json";
    ASSERT_TRUE(reg.writeJson(path).ok());
    std::ifstream f(path);
    std::string back((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(back, j);
    std::remove(path.c_str());
    EXPECT_FALSE(reg.writeJson("/nonexistent-dir/m.json").ok());
}

// ---------------------------------------------------------------
// Reconciliation against the simulator's accounting structs
// ---------------------------------------------------------------

struct MetricsRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    obs::Tracer tracer{1u << 20};
    obs::MetricsRegistry registry;

    MetricsRig()
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        device.installTracer(&tracer);
        device.installMetrics(&registry);
    }
};

vpps::VppsOptions
rigOptions(int host_threads = 1)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.host_threads = host_threads;
    opts.max_relaunch_attempts = 8;
    return opts;
}

TEST(MetricsReconcile, DramCountersMatchTrafficAndWeightBytes)
{
    MetricsRig rig;
    vpps::Handle handle(rig.bm->model(), rig.device, rigOptions());
    rig.device.traffic().reset();
    rig.tracer.clear();

    const int batches = 3;
    for (int step = 0; step < batches; ++step) {
        graph::ComputationGraph cg;
        handle.fb(rig.bm->model(), cg,
                  train::buildSuperGraph(
                      *rig.bm, cg,
                      static_cast<std::size_t>(step) * 2, 2));
    }
    ASSERT_EQ(rig.tracer.dropped(), 0u);

    // The last dram.load.weights counter sample carries the absolute
    // running total, so it equals the TrafficStats ground truth
    // exactly -- no float re-association between the two.
    double last_weights = -1.0;
    for (const obs::TraceEvent& e : rig.tracer.canonical())
        if (e.kind == obs::EventKind::Counter &&
            std::string(e.cat) == "dram.load" &&
            std::string(e.name) == "weights")
            last_weights = e.arg0;
    const double truth =
        rig.device.traffic().loadBytes(MemSpace::Weights);
    EXPECT_DOUBLE_EQ(last_weights, truth)
        << "counter samples diverged from TrafficStats";
    // ...and the ground truth itself is Table I's identity: the
    // persistent kernel loads each weight matrix once per batch.
    EXPECT_NEAR(truth,
                static_cast<double>(batches) *
                    rig.bm->model().totalWeightMatrixBytes(),
                1.0);

    // The published gauges mirror the same totals.
    rig.device.publishMetrics(rig.registry);
    EXPECT_DOUBLE_EQ(
        rig.registry.gaugeValue("dram.load_bytes.weights"), truth);
    EXPECT_DOUBLE_EQ(rig.registry.gaugeValue("device.busy_us"),
                     rig.device.busyUs());
    EXPECT_GT(rig.registry.gaugeValue("device.launches"), 0.0);
}

TEST(MetricsReconcile, CheckpointedRecoveryCountsInRegistry)
{
    MetricsRig rig;
    // Batch-killing plan: 50% script corruption, one retransmit.
    gpusim::FaultPlan plan;
    plan.seed = 13;
    plan.script_ecc_rate = 0.5;
    rig.device.installFaults(plan);
    auto opts = rigOptions();
    opts.max_retransmits = 1;
    vpps::Handle handle(rig.bm->model(), rig.device, opts);

    train::RecoveryOptions ropts;
    ropts.checkpoint_every_batches = 2;
    ropts.max_restores = 200;
    const auto rep = train::measureVppsRecoverable(
        handle, rig.device, *rig.bm, 8, 2, ropts);
    ASSERT_TRUE(rep.completed) << rep.last_error;
    EXPECT_GT(rep.restores, 0u)
        << "the plan never failed a batch -- raise the rate";

    EXPECT_EQ(rig.registry.counterValue("train.checkpoints"),
              rep.checkpoints);
    EXPECT_EQ(rig.registry.counterValue("train.restores"),
              rep.restores);
    // Every failed batch walked the retransmit rung first.
    EXPECT_EQ(
        rig.registry.counterValue("recovery.script_retransmit"),
        rig.device.faults()->injected().script_ecc);
}

/** The accounting identities under a hostile device: transient
 *  faults, 8 host threads, serving traffic. Suite name carries the
 *  ctest soak label (see tests/CMakeLists.txt). */
/**
 * Every NetStats field mirrors into the registry under "net.<field>"
 * one-for-one (the net-lane analog of the fleet.* mirror). The model
 * is driven through every code path that touches a counter --
 * delivered/lost/blocked sends, retransmit ladders, chunked ships
 * with resume, an abandoned ship, the broadcast, and the fleet-side
 * note hooks -- then the registry is reconciled field for field. A
 * NetStats field without a registry mirror (or vice versa) fails
 * here.
 */
TEST(MetricsReconcile, NetStatsMirrorFieldForField)
{
    obs::MetricsRegistry mx;
    obs::Tracer tracer;
    serve::NetConfig nc;
    auto topo = gpusim::Topology::parse(
        "devices 3\nlink 0 1 nvlink\nlink 0 2 nic\n");
    ASSERT_TRUE(topo.ok());
    nc.topology = std::move(topo).value();
    // Lossy link 0-2 plus a down window on 0-1: exercises loss,
    // retransmits, blocked sends, and ship retries deterministically.
    gpusim::LinkFault lossy;
    lossy.a = 0;
    lossy.b = 2;
    lossy.loss_rate = 0.4;
    nc.faults.link_faults.push_back(lossy);
    gpusim::LinkFault window;
    window.a = 0;
    window.b = 1;
    window.down_at_us = 100.0;
    window.down_for_us = 50.0;
    nc.faults.link_faults.push_back(window);
    nc.faults.link_seed = 7;
    nc.ship_chunk_bytes = 1024;
    serve::NetworkModel net(nc, &tracer, &mx);
    ASSERT_TRUE(net.enabled());

    std::uint64_t failed_elsewhere = 0;
    {
        // Permanent cut on a throwaway model sharing the registry:
        // the abandoned-ship path must book ships_failed.
        serve::NetConfig cut = nc;
        cut.faults.link_faults.clear();
        gpusim::LinkFault dead;
        dead.a = 0;
        dead.b = 1;
        dead.down_at_us = 0.0;
        dead.down_for_us = -1.0; // never heals
        cut.faults.link_faults.push_back(dead);
        serve::NetworkModel net2(cut, &tracer, &mx);
        EXPECT_FALSE(net2.ship(0, 1, 2048, 5.0).ok);
        failed_elsewhere = net2.stats().ships_failed;
        EXPECT_EQ(mx.counterValue("net.ships_failed"),
                  failed_elsewhere);
    }

    for (int i = 0; i < 40; ++i)
        net.send(0, 2, 64, 10.0 + i, "probe");     // loss draws
    net.send(0, 1, 512, 120.0, "dispatch");        // inside window
    net.send(0, 1, 512, 200.0, "dispatch");        // after heal
    for (int i = 0; i < 10; ++i)
        net.reliableDeliveryAtUs(0, 2, 128, 300.0 + i);
    net.ship(0, 2, 64 * 1024, 400.0);              // chunk retries
    net.ship(0, 1, 4096, 120.0);                   // waits out window
    ASSERT_TRUE(net.paramBroadcastUs(1 << 20, 0.0).ok());
    net.noteProbeReply(1, 3.5, 500.0);
    net.noteTimeout(42, 510.0);
    net.noteFence(42, 1, 520.0);
    net.noteFenceDrop(42, 1, 530.0);
    net.noteUnreachableSkip();

    const serve::NetStats& s = net.stats();
    EXPECT_GT(s.messages_lost, 0u) << "loss never fired";
    EXPECT_GT(s.sends_blocked, 0u);
    EXPECT_GT(s.retransmits, 0u);
    EXPECT_GT(s.ship_retries, 0u);
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"net.messages", s.messages},
        {"net.messages_lost", s.messages_lost},
        {"net.sends_blocked", s.sends_blocked},
        {"net.retransmits", s.retransmits},
        {"net.probe_replies", s.probe_replies},
        {"net.unreachable_skips", s.unreachable_skips},
        {"net.timeouts", s.timeouts},
        {"net.fences", s.fences},
        {"net.fence_drops", s.fence_drops},
        {"net.ship_chunks", s.ship_chunks},
        {"net.ship_retries", s.ship_retries},
        {"net.ship_bytes", s.ship_bytes},
        {"net.ship_us_total", s.ship_us_total},
        {"net.ships_failed", s.ships_failed + failed_elsewhere},
        {"net.param_broadcasts", s.param_broadcasts},
        {"net.bytes_on_wire", s.bytes_on_wire},
    };
    for (const auto& [name, value] : fields)
        EXPECT_EQ(mx.counterValue(name), value)
            << name << " disagrees with NetStats";
    // One RTT observation per probe reply, one duration per
    // completed ship.
    EXPECT_EQ(mx.histogram("net.probe_rtt_us").count(),
              s.probe_replies);
    EXPECT_EQ(mx.histogram("net.ship_us").count(), 2u);
}

TEST(MetricsSoak, ServingRegistryReconcilesUnderFaults)
{
    MetricsRig rig;
    rig.device.installFaults(gpusim::FaultPlan::uniform(0.15, 57));
    auto opts = rigOptions(8);
    vpps::Handle handle(rig.bm->model(), rig.device, opts);

    serve::ServerConfig cfg;
    serve::Server server(rig.device, *rig.bm, handle, cfg);
    server.calibrate();
    const double batch_us = server.serviceUs(cfg.batch.max_batch);

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.6 * server.capacityPerSec();
    ac.count = 40;
    ac.deadline_slack_us = 60.0 * batch_us;
    ac.low_deadline_slack_us = 60.0 * batch_us;
    ac.seed = 19;
    server.run(serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us, rig.bm->datasetSize()));

    const serve::ServerCounters& c = server.counters();
    ASSERT_TRUE(c.reconciled());
    ASSERT_GT(c.completed, 0u);
    const obs::MetricsRegistry& reg = rig.registry;
    const auto v = [&](const char* name) {
        return reg.counterValue(name);
    };

    // Registry mirrors ServerCounters one-for-one...
    EXPECT_EQ(v("serve.arrivals"), c.arrivals);
    EXPECT_EQ(v("serve.admitted"), c.admitted);
    EXPECT_EQ(v("serve.completed"), c.completed);
    EXPECT_EQ(v("serve.timed_out"), c.timed_out);
    EXPECT_EQ(v("serve.failed"), c.failed);
    EXPECT_EQ(v("serve.rejected_queue_full"), c.rejected_queue_full);
    EXPECT_EQ(v("serve.rejected_infeasible"), c.rejected_infeasible);
    EXPECT_EQ(v("serve.shed"), c.shed);
    EXPECT_EQ(v("serve.retries"), c.retries);
    EXPECT_EQ(v("serve.batches"), c.batches);
    EXPECT_EQ(v("serve.fallback_batches"), c.fallback_batches);
    EXPECT_EQ(v("serve.cancelled_before_dispatch"),
              c.cancelled_before_dispatch);

    // ...so the no-silent-drops identities hold in the registry
    // itself, without consulting the struct.
    EXPECT_EQ(v("serve.arrivals"),
              v("serve.admitted") + v("serve.rejected_queue_full") +
                  v("serve.rejected_infeasible") + v("serve.shed"));
    EXPECT_EQ(v("serve.admitted"),
              v("serve.completed") + v("serve.timed_out") +
                  v("serve.failed"));

    // One latency observation per completion, nothing else.
    const auto hist = reg.histograms().find("serve.latency_us");
    ASSERT_NE(hist, reg.histograms().end());
    EXPECT_EQ(hist->second.count(), c.completed);

    // Recovery rungs == RecoveryStats == the injector's log,
    // category for category: no fault handled twice, none dropped.
    const gpusim::FaultLog& log = rig.device.faults()->injected();
    ASSERT_GT(log.total(), 0u)
        << "the plan injected nothing -- raise the rate";
    const vpps::RecoveryStats& rec = handle.stats().recovery;
    EXPECT_EQ(v("recovery.script_retransmit"), log.script_ecc);
    EXPECT_EQ(v("recovery.weight_reload"), log.weight_ecc);
    EXPECT_EQ(v("recovery.relaunch"), log.launch_failures);
    EXPECT_EQ(v("recovery.hang_recovery"), log.hangs);
    EXPECT_EQ(v("recovery.alloc_retry"), log.alloc_failures);
    EXPECT_EQ(v("recovery.loss_reread"), log.loss_ecc);
    EXPECT_EQ(v("recovery.script_retransmit"),
              rec.script_retransmits);
    EXPECT_EQ(v("recovery.relaunch"), rec.relaunches);
    EXPECT_EQ(v("recovery.hang_recovery"), rec.hang_recoveries);

    // The trace saw the same story: decision instants cover every
    // arrival disposition, recovery instants cover every rung.
    ASSERT_EQ(rig.tracer.dropped(), 0u);
    std::uint64_t decisions = 0, rungs = 0;
    for (const obs::TraceEvent& e : rig.tracer.canonical()) {
        if (e.lane == obs::kLaneServe &&
            std::string(e.cat) == "serve" &&
            (std::string(e.name) == "admit" ||
             std::string(e.name) == "reject_queue_full" ||
             std::string(e.name) == "reject_infeasible" ||
             std::string(e.name) == "shed"))
            ++decisions;
        if (e.lane == obs::kLaneRecovery)
            ++rungs;
    }
    EXPECT_EQ(decisions, c.arrivals);
    EXPECT_GE(rungs, log.total());
}

} // namespace

/**
 * @file
 * Acceptance suite for network fault domains and partition-tolerant
 * fleet serving (DESIGN.md section 4.12). The headline invariant,
 * proved by an explorer-style sweep over link-down instants: any
 * single link failure/partition of the serving fabric loses no
 * admitted High-class request, post-heal completions are bitwise
 * identical to the fault-free run (the epoch fence makes a healed
 * partition unable to double-complete), and dispatch accounting
 * reconciles by construction -- at 1 and at 8 host interpreter
 * threads. Rack-locality-aware promotion and the golden net-lane
 * trace ride on the same machinery.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/arrival.hpp"
#include "serve/explorer.hpp"
#include "serve/fleet.hpp"
#include "serve/net.hpp"
#include "vpps/handle.hpp"

namespace {

// ---------------------------------------------------------------
// Explorer sweep: the headline invariant
// ---------------------------------------------------------------

serve::NetExplorerConfig
sweepConfig(int host_threads, std::size_t max_points)
{
    serve::NetExplorerConfig cfg;
    cfg.host_threads = host_threads;
    cfg.max_points = max_points;
    return cfg;
}

TEST(PartitionTolerance, SweepLosesNoHighAndStaysBitwise)
{
    const serve::ExploreReport rep =
        serve::exploreLinkDownPoints(sweepConfig(1, 6));
    ASSERT_GT(rep.baseline_completed, 0u);
    ASSERT_GE(rep.points_tested.size(), 2u);
    // Pinned: the fault-free run's end and the sweep it spans.
    EXPECT_EQ(rep.baseline_end, 34681u);
    EXPECT_EQ(rep.points_tested,
              (std::vector<std::uint64_t>{0, 6936, 13872, 20808, 27744,
                                          34681}));
    std::string why;
    for (const auto& f : rep.failures)
        for (const auto& v : f.violations)
            why += v + "\n";
    EXPECT_TRUE(rep.passed()) << why;
}

TEST(PartitionTolerance, SweepIsThreadInvariant)
{
    // The whole sweep -- baseline end time, completion count, tested
    // instants, verdicts -- must be a pure function of the scenario
    // seeds, independent of the host interpreter thread count.
    const serve::ExploreReport r1 =
        serve::exploreLinkDownPoints(sweepConfig(1, 4));
    const serve::ExploreReport r8 =
        serve::exploreLinkDownPoints(sweepConfig(8, 4));
    EXPECT_EQ(r1.baseline_end, r8.baseline_end);
    EXPECT_EQ(r1.baseline_completed, r8.baseline_completed);
    EXPECT_EQ(r1.points_tested, r8.points_tested);
    EXPECT_TRUE(r1.passed());
    EXPECT_TRUE(r8.passed());
}

TEST(PartitionTolerance, MidTracePartitionFencesAndHeals)
{
    serve::NetExplorerConfig cfg = sweepConfig(1, 1);
    // A longer window so the partition catches dispatches in flight,
    // not just an idle gap.
    cfg.down_for_us = 8'000.0;
    const serve::PartitionMeasurement m =
        serve::measurePartition(cfg, 0.35);
    std::string why;
    for (const auto& v : m.violations)
        why += v + "\n";
    EXPECT_TRUE(m.violations.empty()) << why;
    EXPECT_GE(m.link_downs, 1u) << "the window never engaged";
    // The partition was visible on the wire -- blocked sends, router
    // skips, or a fence -- yet goodput survived and nothing was lost.
    EXPECT_GT(m.sends_blocked + m.unreachable_skips + m.fenced +
                  m.timeouts,
              0u);
    EXPECT_GT(m.faulted_goodput, 0.0);
    // Every fence that dropped a stale reply was booked both ways.
    EXPECT_EQ(m.fenced, m.timeouts);
    EXPECT_GT(m.baseline_end_us, 0u);
}

TEST(PartitionTolerance, SeededLossIsDeterministic)
{
    // Per-link message loss draws from the dedicated link stream, so
    // two identical lossy runs agree in every field -- counters,
    // retransmits, end time -- and still lose nothing.
    serve::NetExplorerConfig cfg = sweepConfig(1, 1);
    cfg.loss_rate = 0.10;
    const serve::PartitionMeasurement a =
        serve::measurePartition(cfg, 0.5);
    const serve::PartitionMeasurement b =
        serve::measurePartition(cfg, 0.5);
    EXPECT_TRUE(a.violations.empty());
    EXPECT_TRUE(b.violations.empty());
    EXPECT_GT(a.retransmits + a.timeouts, 0u)
        << "loss at 10% never engaged";
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.fenced, b.fenced);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.faulted_end_us, b.faulted_end_us);
}

TEST(PartitionTolerance, SingleLinkDownPointChecksClean)
{
    // The one-point entry the sweep is built from: a window opening
    // at t = 0 (the whole warm-up partitioned) still violates
    // nothing.
    const std::vector<std::string> violations =
        serve::checkLinkDownPoint(sweepConfig(1, 1), 0);
    std::string why;
    for (const auto& v : violations)
        why += v + "\n";
    EXPECT_TRUE(violations.empty()) << why;
}

TEST(PartitionTolerance, TransportEdgeCases)
{
    // The transport corners the serving scenarios never reach:
    // multi-hop routes, unreachable pairs, reflexive queries, total
    // loss, and empty ships.
    serve::NetworkModel off;
    EXPECT_FALSE(off.enabled());

    // Device 3 is isolated; 0 reaches 2 only through the route; the
    // 1-2 hop loses every message (loss_ppm at its maximum).
    auto topo = gpusim::Topology::parse(
        "devices 4\n"
        "link 0 1 nvlink\n"
        "link 1 2 pcie\n"
        "route 0 2 via 1\n"
        "linkfault 1 2 loss_ppm=1000000\n");
    ASSERT_TRUE(topo.ok()) << topo.status().toString();
    serve::NetConfig nc;
    nc.topology = std::move(topo).value();
    nc.faults.link_faults = nc.topology.linkFaults();
    nc.faults.link_seed = 3;
    nc.max_retransmits = 6;
    nc.max_chunk_retries = 3;
    serve::NetworkModel net(nc, nullptr, nullptr);
    ASSERT_TRUE(net.enabled());

    // Reflexive and out-of-range pairs are not paths.
    EXPECT_FALSE(net.pathUp(1, 1, 0.0));
    EXPECT_FALSE(net.pathUp(7, 0, 0.0));
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(net.pathUpAtUs(0, 3, 0.0), inf);

    // Candidate scoring is a pure topology property: 0 for self,
    // +inf when unreachable, hop-additive over the route -- and it
    // equals the fault-free wire time of the same transfer.
    EXPECT_EQ(net.scoreUs(2, 2, 4096), 0.0);
    EXPECT_EQ(net.scoreUs(0, 3, 4096), inf);
    const double via = net.scoreUs(0, 2, 4096);
    EXPECT_GT(via, 0.0);
    EXPECT_DOUBLE_EQ(via, net.scoreUs(0, 1, 4096) +
                              net.scoreUs(1, 2, 4096));
    EXPECT_DOUBLE_EQ(via, net.transferUs(0, 2, 4096, 0.0));

    // Total loss on the 1-2 hop: sends never deliver, the reliable
    // ladder exhausts its retransmits, and a chunked ship abandons
    // -- all without a panic, all booked.
    const auto out = net.send(0, 2, 64, 0.0, "dispatch");
    EXPECT_FALSE(out.delivered);
    EXPECT_FALSE(out.blocked);
    EXPECT_EQ(net.reliableDeliveryAtUs(0, 2, 64, 0.0), inf);
    EXPECT_EQ(net.reliableDeliveryAtUs(0, 3, 64, 0.0), inf);
    const auto ship = net.ship(0, 2, 4096, 0.0);
    EXPECT_FALSE(ship.ok);
    EXPECT_EQ(net.stats().ships_failed, 1u);
    EXPECT_GT(net.stats().messages_lost, 0u);
    EXPECT_GT(net.stats().retransmits, 0u);

    // A zero-byte ship is complete before it starts.
    const auto empty = net.ship(0, 1, 0, 5.0);
    EXPECT_TRUE(empty.ok);
    EXPECT_EQ(empty.done_at_us, 5.0);
    EXPECT_EQ(empty.chunks, 0u);

    // The 4-rank broadcast tree prices a (2,3) hop; with device 3
    // isolated that is a structured error, not a panic.
    auto bc = net.paramBroadcastUs(1 << 20, 0.0);
    EXPECT_FALSE(bc.ok());
    EXPECT_EQ(bc.status().code(), common::ErrorCode::Unavailable);
}

TEST(PartitionTolerance, LostChunkBackoffLadderIsPinned)
{
    // A link that drops every message: the chunk is lost on each of
    // its max_chunk_retries + 1 attempts, and the ship is abandoned
    // after the last backoff. The waits are 50, 100, ..., 3200 us,
    // then the 5000 us cap twice, so the elapsed time fixes the
    // ladder's base, factor and cap.
    serve::NetConfig nc;
    nc.topology = gpusim::Topology::uniform(2, gpusim::LinkType::NVLink);
    gpusim::LinkFault lossy;
    lossy.a = 0;
    lossy.b = 1;
    lossy.loss_rate = 1.0;
    nc.faults.link_faults = {lossy};
    serve::NetworkModel net(nc, nullptr, nullptr);

    const double now = 250.0;
    const auto ship = net.ship(0, 1, 4096, now);
    EXPECT_FALSE(ship.ok);
    EXPECT_EQ(ship.chunks, 0u);
    EXPECT_EQ(ship.retries, 9u);
    EXPECT_EQ(ship.done_at_us - now, 16350.0)
        << std::hexfloat << ship.done_at_us - now;
}

TEST(PartitionTolerance, ParamBroadcastIsPinned)
{
    // The pipelined tree broadcast over four PCIe-linked devices, bit
    // for bit: the pipeline's chunk count sets the duration. Each of
    // the three receivers gets the whole blob once.
    serve::NetConfig nc;
    nc.topology = gpusim::Topology::uniform(4, gpusim::LinkType::PCIe);
    serve::NetworkModel net(nc, nullptr, nullptr);
    const auto bc = net.paramBroadcastUs(1 << 20, 0.0);
    ASSERT_TRUE(bc.ok()) << bc.status().toString();
    EXPECT_EQ(bc.value(), 0x1.1e9d2f1a9fbe8p+7) // 143.307
        << std::hexfloat << bc.value();
    EXPECT_EQ(net.stats().bytes_on_wire, 3u << 20);
}

// ---------------------------------------------------------------
// Rack-locality-aware promotion
// ---------------------------------------------------------------

TEST(PartitionTolerance, RackLocalPromotionShipsCheaper)
{
    serve::NetExplorerConfig cfg = sweepConfig(1, 1);
    const serve::PromotionMeasurement local =
        serve::measurePromotion(cfg, /*rack_local=*/true);
    const serve::PromotionMeasurement cross =
        serve::measurePromotion(cfg, /*rack_local=*/false);
    std::string why;
    for (const auto& v : local.violations)
        why += "local: " + v + "\n";
    for (const auto& v : cross.violations)
        why += "cross: " + v + "\n";
    EXPECT_TRUE(local.violations.empty() && cross.violations.empty())
        << why;
    ASSERT_TRUE(local.joined);
    ASSERT_TRUE(cross.joined);
    // Same parameter blob either way...
    ASSERT_GT(local.ship_bytes, 0u);
    EXPECT_EQ(local.ship_bytes, cross.ship_bytes);
    EXPECT_EQ(local.ship_chunks, cross.ship_chunks);
    // ...but the same-rack nvlink ship beats the cross-rack nic ship
    // outright -- the cost difference rack-aware failover exists for.
    EXPECT_LT(local.ship_us, cross.ship_us)
        << "rack-local promotion must be cheaper on the wire";
}

// ---------------------------------------------------------------
// Golden net-lane trace
// ---------------------------------------------------------------

vpps::VppsOptions
netOpts(int host_threads)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.host_threads = host_threads;
    opts.max_relaunch_attempts = 2;
    return opts;
}

struct NetRig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    explicit NetRig(int host_threads)
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        handle = std::make_unique<vpps::Handle>(
            bm->model(), device, netOpts(host_threads));
    }

    serve::FleetReplica
    slot(const char* name, std::size_t node)
    {
        serve::FleetReplica r{name, &device, bm.get(),
                              handle.get()};
        r.node = node;
        return r;
    }
};

/** What the tracing-on/off A/B and the golden compare both need. */
struct NetRunDigest
{
    std::string net_lane;  //!< canonical net-lane text (may be "")
    serve::FleetCounters counters;
    serve::NetStats net;
    std::vector<std::pair<std::uint64_t, float>> responses;
    double end_us = 0.0;
};

/** A lossy, windowed two-replica scenario; @p traced attaches the
 *  tracer whose net lane the golden test compares. */
NetRunDigest
runNetScenario(int host_threads, bool traced)
{
    NetRig r0(host_threads), r1(host_threads);
    obs::Tracer tracer;

    serve::FleetConfig cfg;
    cfg.admission.queue_capacity = 40;
    cfg.admission.shrink_watermark = 40;
    cfg.admission.shed_watermark = 40;
    cfg.max_failovers_high = 3;
    cfg.max_failovers_low = 2;
    cfg.standby_opts = netOpts(host_threads);
    auto topo = gpusim::Topology::parse(
        "devices 3\n"
        "link 0 1 nvlink\n"
        "link 0 2 pcie\n"
        "linkfault 0 1 down_at_us=9000 down_for_us=4000\n"
        "linkfault 0 2 loss_ppm=50000\n");
    EXPECT_TRUE(topo.ok()) << topo.status().toString();
    cfg.net.topology = std::move(topo).value();
    cfg.net.controller_node = 0;
    cfg.net.faults.link_faults = cfg.net.topology.linkFaults();
    cfg.net.faults.link_seed = 11;

    serve::Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2)}, cfg,
                       traced ? &tracer : nullptr, nullptr);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 600.0; // sparse; the window spans several
    ac.count = 24;
    ac.deadline_slack_us = 1.0e9;
    ac.low_deadline_slack_us = 1.0e9;
    ac.low_fraction = 0.25;
    ac.seed = 5;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, 1.0, r0.bm->datasetSize()));

    NetRunDigest d;
    d.counters = fleet.counters();
    d.net = fleet.netStats();
    d.responses = fleet.responses();
    d.end_us = fleet.nowUs();
    if (traced) {
        EXPECT_EQ(tracer.dropped(), 0u);
        for (const obs::TraceEvent& e : tracer.canonical()) {
            if (e.lane != obs::kLaneNet)
                continue;
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s.%s ts=%.6f dur=%.6f ctx=%lld "
                          "a0=%.6f a1=%.6f\n",
                          e.cat, e.name, e.ts_us, e.dur_us,
                          static_cast<long long>(e.ctx), e.arg0,
                          e.arg1);
            d.net_lane += line;
        }
    }
    return d;
}

TEST(GoldenNetTrace, NetLaneIsByteIdenticalAcrossHostThreads)
{
    const NetRunDigest serial = runNetScenario(1, true);
    ASSERT_FALSE(serial.net_lane.empty());
    // The lane covers the full wire story of the scenario.
    EXPECT_NE(serial.net_lane.find("net.dispatch"),
              std::string::npos);
    EXPECT_NE(serial.net_lane.find("net.probe"), std::string::npos);
    EXPECT_NE(serial.net_lane.find("net.send_blocked"),
              std::string::npos);
    EXPECT_NE(serial.net_lane.find("net.param_broadcast"),
              std::string::npos);

    const NetRunDigest parallel = runNetScenario(8, true);
    EXPECT_EQ(serial.net_lane, parallel.net_lane)
        << "host thread count leaked into the net lane";
    // And the run is a pure function of its seeds.
    EXPECT_EQ(serial.net_lane, runNetScenario(1, true).net_lane);
}

TEST(GoldenNetTrace, TracingOnOffDoesNotPerturbTheFleet)
{
    const NetRunDigest on = runNetScenario(1, true);
    const NetRunDigest off = runNetScenario(1, false);
    EXPECT_EQ(on.counters.completed, off.counters.completed);
    EXPECT_EQ(on.counters.routed, off.counters.routed);
    EXPECT_EQ(on.counters.fenced, off.counters.fenced);
    EXPECT_EQ(on.counters.failed_over, off.counters.failed_over);
    EXPECT_EQ(on.net.messages, off.net.messages);
    EXPECT_EQ(on.net.messages_lost, off.net.messages_lost);
    EXPECT_EQ(on.net.retransmits, off.net.retransmits);
    EXPECT_EQ(on.net.bytes_on_wire, off.net.bytes_on_wire);
    EXPECT_DOUBLE_EQ(on.end_us, off.end_us);
    ASSERT_EQ(on.responses.size(), off.responses.size());
    for (std::size_t i = 0; i < on.responses.size(); ++i) {
        EXPECT_EQ(on.responses[i].first, off.responses[i].first);
        std::uint32_t ba = 0, bb = 0;
        std::memcpy(&ba, &on.responses[i].second, 4);
        std::memcpy(&bb, &off.responses[i].second, 4);
        EXPECT_EQ(ba, bb) << "response bits diverged at " << i;
    }
}

TEST(GoldenNetTrace, FaultFreeWireTrafficIsPinned)
{
    // A clean two-replica fleet: every probe, probe reply, dispatch
    // and completion is delivered first time, so the message count
    // and the bytes on the wire pin the three control-message sizes
    // (with the initial parameter broadcast).
    NetRig r0(1), r1(1);
    serve::FleetConfig cfg;
    cfg.standby_opts = netOpts(1);
    auto topo = gpusim::Topology::parse("devices 3\n"
                                        "link 0 1 nvlink\n"
                                        "link 0 2 pcie\n");
    ASSERT_TRUE(topo.ok()) << topo.status().toString();
    cfg.net.topology = std::move(topo).value();

    serve::Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2)}, cfg,
                       nullptr, nullptr);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 600.0;
    ac.count = 12;
    ac.deadline_slack_us = 1.0e9;
    ac.low_deadline_slack_us = 1.0e9;
    ac.seed = 5;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, 1.0, r0.bm->datasetSize()));

    const serve::NetStats& net = fleet.netStats();
    EXPECT_EQ(fleet.counters().completed, 12u);
    EXPECT_GT(net.probe_replies, 0u);
    EXPECT_EQ(net.messages_lost + net.sends_blocked + net.retransmits,
              0u);
    EXPECT_EQ(net.messages, 64u);
    EXPECT_EQ(net.bytes_on_wire, 146048u);
}

} // namespace

/**
 * @file
 * Acceptance suite for device-loss fault domains and the replicated
 * failover fleet. The headline invariant: with R >= 2 replicas and
 * any single-device loss mid-load, no admitted High-class request is
 * lost, and every completed response is bitwise identical to the
 * fault-free run -- at 1 and at 8 host interpreter threads.
 *
 * Each replica is constructed from identical seeds, so all replicas
 * (and the fault-free sizing replica the tests compare against) hold
 * bitwise-identical parameters and datasets; inferTry() never touches
 * parameters; and the fleet routes requests individually. A response
 * is therefore a pure function of the input index, which is what
 * makes the bitwise cross-checks below meaningful.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/arrival.hpp"
#include "serve/fleet.hpp"
#include "serve/health.hpp"
#include "vpps/handle.hpp"

namespace {

vpps::VppsOptions
fleetOpts(int host_threads)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.host_threads = host_threads;
    opts.max_relaunch_attempts = 2;
    return opts;
}

/** One replica: its own device, dataset, model, handle -- all from
 *  the same seeds, so every Replica is bitwise identical. */
struct Replica
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    explicit Replica(int host_threads, bool standby = false)
    {
        // Scenarios script their own fault plans; an inherited soak
        // environment must not perturb them.
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        if (!standby)
            handle = std::make_unique<vpps::Handle>(
                bm->model(), device, fleetOpts(host_threads));
    }

    serve::FleetReplica
    slot(const char* name)
    {
        return serve::FleetReplica{name, &device, bm.get(),
                                   handle.get()};
    }
};

/** Simulated service time of one single-request dispatch, measured
 *  on a throwaway replica. */
double
probeReqUs(Replica& r)
{
    graph::ComputationGraph cg;
    auto loss = r.bm->buildLoss(cg, 0);
    const double before = r.handle->stats().wall_us;
    auto res = r.handle->inferTry(r.bm->model(), cg, loss);
    EXPECT_TRUE(res.ok());
    return std::max(1.0, r.handle->stats().wall_us - before);
}

/** Ground-truth response per input index, from a fault-free replica. */
std::vector<float>
referenceLosses(Replica& r)
{
    std::vector<float> out;
    out.reserve(r.bm->datasetSize());
    for (std::size_t i = 0; i < r.bm->datasetSize(); ++i) {
        graph::ComputationGraph cg;
        auto loss = r.bm->buildLoss(cg, i);
        auto res = r.handle->inferTry(r.bm->model(), cg, loss);
        EXPECT_TRUE(res.ok());
        out.push_back(res.ok() ? res.value() : 0.0f);
    }
    return out;
}

void
expectBitwiseEqual(float a, float b, const std::string& what)
{
    std::uint32_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    EXPECT_EQ(ba, bb) << what;
}

/** Everything the determinism criteria compare. */
struct FleetDigest
{
    serve::FleetCounters c;
    std::vector<std::pair<std::uint64_t, float>> responses;
    double sim_end_us = 0.0;
};

void
expectIdenticalDigests(const FleetDigest& a, const FleetDigest& b,
                       const std::string& what)
{
    EXPECT_EQ(a.c.arrivals, b.c.arrivals) << what;
    EXPECT_EQ(a.c.admitted, b.c.admitted) << what;
    EXPECT_EQ(a.c.completed, b.c.completed) << what;
    EXPECT_EQ(a.c.timed_out, b.c.timed_out) << what;
    EXPECT_EQ(a.c.failed, b.c.failed) << what;
    EXPECT_EQ(a.c.routed, b.c.routed) << what;
    EXPECT_EQ(a.c.failed_over, b.c.failed_over) << what;
    EXPECT_EQ(a.c.hedge_cancelled, b.c.hedge_cancelled) << what;
    EXPECT_EQ(a.c.lost, b.c.lost) << what;
    EXPECT_EQ(a.c.hedges, b.c.hedges) << what;
    EXPECT_EQ(a.c.probes, b.c.probes) << what;
    EXPECT_EQ(a.c.suspicions, b.c.suspicions) << what;
    EXPECT_EQ(a.c.device_losses, b.c.device_losses) << what;
    EXPECT_DOUBLE_EQ(a.sim_end_us, b.sim_end_us) << what;
    ASSERT_EQ(a.responses.size(), b.responses.size()) << what;
    for (std::size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_EQ(a.responses[i].first, b.responses[i].first)
            << what << " @" << i;
        expectBitwiseEqual(a.responses[i].second,
                           b.responses[i].second, what);
    }
}

/**
 * The headline scenario: three replicas at 2x offered load, one
 * device wedged mid-run. Generous High-class deadlines (the excess
 * load is turned away at admission, not timed out after it).
 */
FleetDigest
runWedgeScenario(int host_threads, bool wedge)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(host_threads), r1(host_threads), r2(host_threads);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 2.0 * 3.0e6 / req_us; // 2x the 3-replica fleet
    ac.count = 120;
    ac.deadline_slack_us = 80.0 * req_us;
    ac.low_deadline_slack_us = 90.0 * req_us;
    ac.low_fraction = 0.25;
    ac.seed = 5;

    const double start = req_us;
    if (wedge) {
        // Mid-run: ~1/4 into the arrival span (120 reqs at 2x over
        // 3 replicas spans ~20 req_us of simulated time).
        gpusim::FaultPlan plan;
        plan.wedge_at_us = start + 5.0 * req_us;
        r1.device.installFaults(plan);
    }

    serve::FleetConfig cfg;
    cfg.admission.queue_capacity = 24;
    cfg.admission.shrink_watermark = 8;
    cfg.admission.shed_watermark = 12;
    cfg.max_failovers_high = 2;
    cfg.max_failovers_low = 1;
    cfg.standby_opts = fleetOpts(host_threads);
    // Slow probes: the wedge is discovered the hard way, by a failed
    // dispatch, which is what exercises deadline-aware failover.
    cfg.health.probe_interval_us = 10.0 * req_us;

    serve::Fleet fleet(
        {r0.slot("r0"), r1.slot("r1"), r2.slot("r2")}, cfg);
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, start, r0.bm->datasetSize());
    fleet.run(arrivals);

    FleetDigest d;
    d.c = fleet.counters();
    d.responses = fleet.responses();
    d.sim_end_us = fleet.nowUs();

    // Bitwise ground truth: every completed response equals the
    // fault-free sizing replica's loss for that input.
    const auto ref = referenceLosses(sizing);
    for (const auto& [id, resp] : d.responses) {
        EXPECT_LT(id, arrivals.size());
        if (id >= arrivals.size())
            continue;
        expectBitwiseEqual(
            resp, ref[arrivals[id].input_index],
            "response for request " + std::to_string(id));
    }
    return d;
}

TEST(FleetFailover, WedgeAtDoubleLoadLosesNoAdmittedHigh)
{
    const FleetDigest d = runWedgeScenario(1, true);
    const auto& c = d.c;
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.arrivals, 120u);
    EXPECT_EQ(c.device_losses, 1u);
    EXPECT_GE(c.failed_over, 1u)
        << "the in-flight request on the wedged replica must fail "
           "over, not vanish";
    // The invariant: every admitted High-class request completes.
    EXPECT_GT(c.admitted_high, 0u);
    EXPECT_EQ(c.completed_high, c.admitted_high);
    EXPECT_EQ(c.timed_out_high, 0u);
    EXPECT_EQ(c.failed_high, 0u);
    // Overload is turned away explicitly, never silently.
    EXPECT_GT(c.shed + c.rejected_queue_full + c.rejected_infeasible,
              0u);
    EXPECT_EQ(c.admitted, c.completed + c.timed_out + c.failed);
}

TEST(FleetFailover, WedgedRunMatchesFaultFreeRunBitwise)
{
    const FleetDigest faulty = runWedgeScenario(1, true);
    const FleetDigest clean = runWedgeScenario(1, false);
    EXPECT_TRUE(clean.c.reconciled());
    EXPECT_EQ(clean.c.device_losses, 0u);
    EXPECT_EQ(clean.c.failed_over, 0u);

    std::map<std::uint64_t, float> clean_by_id(
        clean.responses.begin(), clean.responses.end());
    for (const auto& [id, resp] : faulty.responses) {
        const auto it = clean_by_id.find(id);
        if (it == clean_by_id.end())
            continue; // admission differs under the fault; fine
        expectBitwiseEqual(resp, it->second,
                           "request " + std::to_string(id) +
                               " diverged from the no-fault run");
    }
}

TEST(FleetFailover, WedgeScenarioIsBitwiseIdenticalAcrossThreads)
{
    const FleetDigest d1 = runWedgeScenario(1, true);
    const FleetDigest d8 = runWedgeScenario(8, true);
    expectIdenticalDigests(d1, d8, "wedge at 2x, threads 1 vs 8");
}

TEST(FleetFailover, StallTriggersHedgeSuspicionAndRecovers)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(1), r1(1);
    const double start = req_us;
    gpusim::FaultPlan plan;
    plan.stall_at_us = start + 2.0 * req_us;
    plan.stall_duration_us = 15.0 * req_us;
    r0.device.installFaults(plan);

    serve::FleetConfig cfg;
    cfg.hedge_delay_us = 2.0 * req_us;
    cfg.health.probe_interval_us = 0.5 * req_us;
    cfg.standby_opts = fleetOpts(1);

    serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")}, cfg);
    serve::ArrivalConfig ac;
    // Light aggregate load: the healthy replica must have idle
    // windows during the stall, or there is no capacity to hedge
    // into and the hedge keeps re-arming until the slow twin lands.
    ac.rate_per_sec = 0.35 * 2.0e6 / req_us;
    ac.count = 60;
    ac.deadline_slack_us = 60.0 * req_us;
    ac.low_fraction = 0.0; // all High: everything may hedge
    ac.seed = 9;
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, start, r0.bm->datasetSize());
    fleet.run(arrivals);

    const auto& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.device_losses, 0u) << "a stall is not a death";
    EXPECT_GE(c.hedges, 1u)
        << "a dispatch caught in the stall must trigger a hedge";
    EXPECT_GE(c.hedge_cancelled, 1u)
        << "the stalled loser must be cancelled, not lost";
    EXPECT_GE(c.suspicions, 1u)
        << "silent probes during the stall must raise phi past the "
           "threshold";
    EXPECT_EQ(c.completed_high, c.admitted_high)
        << "hedging must mask the stall for the High class";
    EXPECT_GE(r0.handle->stats().recovery.stall_delays, 1u);
    // Both replicas are still in rotation afterwards.
    EXPECT_EQ(fleet.replicaState(0), serve::ReplicaState::Active);
    EXPECT_EQ(fleet.replicaState(1), serve::ReplicaState::Active);

    const auto ref = referenceLosses(sizing);
    for (const auto& [id, resp] : fleet.responses())
        expectBitwiseEqual(resp, ref[arrivals[id].input_index],
                           "stalled-fleet response " +
                               std::to_string(id));
}

TEST(FleetFailover, SmDisableRederivesPlanWithoutFailover)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);
    const auto ref = referenceLosses(sizing);

    Replica r0(1);
    const int sms_before = r0.device.spec().num_sms;
    gpusim::FaultPlan plan;
    plan.sm_disable_at_us = req_us * 3.0;
    plan.sm_disable_count = sms_before / 2;
    r0.device.installFaults(plan);

    serve::FleetConfig cfg;
    cfg.standby_opts = fleetOpts(1);
    serve::Fleet fleet({r0.slot("r0")}, cfg);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.5e6 / req_us;
    ac.count = 40;
    // The in-place re-derivation re-JITs the pinned specialization,
    // which charges modeled NVRTC seconds to the device clock. The
    // deadline slack must absorb that pause, or every request behind
    // the shrink times out and the test measures admission, not
    // recovery.
    ac.deadline_slack_us = 4.0e6 + 120.0 * req_us;
    ac.low_fraction = 0.0;
    ac.seed = 13;
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, req_us, r0.bm->datasetSize());
    fleet.run(arrivals);

    const auto& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.device_losses, 0u);
    EXPECT_EQ(c.failed_over, 0u)
        << "an SM disable shrinks the plan in place; it must not "
           "bounce requests";
    EXPECT_EQ(c.completed, c.admitted);
    EXPECT_EQ(r0.device.disabledSms(), sms_before / 2);
    EXPECT_EQ(r0.device.spec().num_sms,
              sms_before - sms_before / 2);
    EXPECT_EQ(r0.handle->stats().recovery.plan_rederivations, 1u);
    EXPECT_EQ(r0.device.faults()->injected().sm_disables, 1u);

    // Re-deriving the distribution plan over fewer SMs must not
    // change a single bit of any response.
    for (const auto& [id, resp] : fleet.responses())
        expectBitwiseEqual(resp, ref[arrivals[id].input_index],
                           "post-shrink response " +
                               std::to_string(id));
}

TEST(FleetFailover, StandbyRestoresFromBlobAndJoins)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);
    const auto ref = referenceLosses(sizing);

    Replica r0(1), r1(1);
    Replica standby(1, /*standby=*/true);
    gpusim::FaultPlan plan;
    plan.wedge_at_us = req_us * 3.0;
    r0.device.installFaults(plan);

    serve::FleetConfig cfg;
    cfg.standby_opts = fleetOpts(1);
    serve::Fleet fleet(
        {r0.slot("r0"), r1.slot("r1"), standby.slot("warm")}, cfg);

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.7 * 2.0e6 / req_us;
    ac.count = 40;
    ac.deadline_slack_us = 80.0 * req_us;
    ac.low_fraction = 0.0;
    ac.seed = 17;
    const auto phase1 = serve::generateOpenLoopArrivals(
        ac, req_us, r0.bm->datasetSize());
    fleet.run(phase1);

    // run() does not return while a promoted standby is still
    // rebuilding, so the join is guaranteed by now.
    const auto& c1 = fleet.counters();
    EXPECT_TRUE(c1.reconciled());
    EXPECT_EQ(c1.device_losses, 1u);
    EXPECT_EQ(c1.standby_joins, 1u);
    EXPECT_EQ(fleet.replicaState(0), serve::ReplicaState::Dead);
    EXPECT_EQ(fleet.replicaState(2), serve::ReplicaState::Active);

    // Phase 2: the promoted standby serves live traffic, and its
    // blob-restored parameters answer bitwise identically.
    ac.seed = 18;
    ac.count = 30;
    auto phase2 = serve::generateOpenLoopArrivals(
        ac, fleet.nowUs() + req_us, r0.bm->datasetSize());
    // Ids are per-generation; offset phase 2 so the combined response
    // log maps every id to a unique arrival record.
    for (auto& a : phase2)
        a.id += phase1.size();
    fleet.run(phase2);

    const auto rep = fleet.report();
    EXPECT_TRUE(rep.counters.reconciled());
    EXPECT_GT(rep.replicas[2].dispatches, 0u)
        << "the joined standby must actually take traffic";
    const std::size_t n1 = phase1.size();
    for (const auto& [id, resp] : fleet.responses()) {
        const auto& trace = id < n1 ? phase1 : phase2;
        const std::size_t idx = id < n1 ? id : id - n1;
        expectBitwiseEqual(resp, ref[trace[idx].input_index],
                           "fleet response " + std::to_string(id));
    }
}

TEST(FleetFailover, AllReplicasDeadDrainsQueueExplicitly)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(1);
    gpusim::FaultPlan plan;
    plan.wedge_at_us = req_us * 2.0;
    r0.device.installFaults(plan);

    serve::FleetConfig cfg;
    cfg.standby_opts = fleetOpts(1);
    cfg.max_failovers_high = 2;
    serve::Fleet fleet({r0.slot("r0")}, cfg);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 1.0e6 / req_us;
    ac.count = 20;
    ac.deadline_slack_us = 50.0 * req_us;
    ac.low_fraction = 0.0;
    ac.seed = 23;
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, req_us, r0.bm->datasetSize());
    fleet.run(arrivals);

    const auto& c = fleet.counters();
    EXPECT_TRUE(c.reconciled())
        << "even total fleet loss must not leak a request";
    EXPECT_EQ(c.device_losses, 1u);
    EXPECT_EQ(c.admitted, c.completed + c.timed_out + c.failed);
    EXPECT_GT(c.failed + c.timed_out, 0u)
        << "requests stranded by the dead fleet get explicit "
           "dispositions";
}

TEST(FleetFailover, PhiAccrualDetectorSuspectsSilence)
{
    serve::HealthConfig hc;
    hc.probe_interval_us = 100.0;
    hc.phi_threshold = 8.0;
    hc.window = 4;
    serve::PhiAccrualDetector det(hc, 0.0);

    // Regular heartbeats: phi stays tiny right after each beat.
    for (int i = 1; i <= 6; ++i)
        det.heartbeat(100.0 * i);
    EXPECT_LT(det.phi(650.0), 1.0);
    EXPECT_FALSE(det.suspect(650.0));

    // Silence: phi grows linearly in elapsed / mean gap.
    EXPECT_NEAR(det.phi(700.0), 0.43429448190325176, 1e-12);
    EXPECT_GT(det.phi(2500.0), hc.phi_threshold);
    EXPECT_TRUE(det.suspect(2500.0));

    // A heartbeat resets suspicion.
    det.heartbeat(2600.0);
    EXPECT_FALSE(det.suspect(2650.0));
}

TEST(FleetFailover, HealthMonitorSchedulesSeededJitteredProbes)
{
    serve::HealthConfig hc;
    hc.probe_interval_us = 1'000.0;
    hc.jitter_frac = 0.2;
    hc.seed = 41;
    serve::HealthMonitor a(hc, 3, 0.0);
    serve::HealthMonitor b(hc, 3, 0.0);

    for (int step = 0; step < 20; ++step) {
        const double ta = a.nextProbeUs();
        const double tb = b.nextProbeUs();
        ASSERT_DOUBLE_EQ(ta, tb) << "seeded schedules must agree";
        const std::size_t ra = a.nextProbeReplica();
        ASSERT_EQ(ra, b.nextProbeReplica());
        // Jitter stays inside the configured band.
        a.recordProbe(ra, ta, true);
        b.recordProbe(ra, tb, true);
        const double gap = a.nextProbeUs() - ta;
        EXPECT_GE(gap, 0.0);
    }
    // Disabling removes a replica from the schedule; reset restores.
    a.disable(0);
    a.disable(1);
    a.disable(2);
    EXPECT_EQ(a.nextProbeUs(),
              std::numeric_limits<double>::infinity());
    a.reset(1, 5'000.0);
    EXPECT_EQ(a.nextProbeReplica(), 1u);
    EXPECT_GT(a.nextProbeUs(), 5'000.0);
    EXPECT_LE(a.nextProbeUs(),
              5'000.0 + hc.probe_interval_us * (1.0 + hc.jitter_frac));
}

/**
 * Event tie order at the exact microsecond a link-down window opens
 * AND a device wedges (the same instant, by construction): the probe
 * consults the link at its send instant *before* it can consult the
 * device, so the partition masks the wedge. During the window the
 * replica is merely silent (suspicion, no death); the wedge is
 * confirmed -- and the replica declared dead -- only by the first
 * probe (or retransmitted completion) through the healed link. The
 * trace proves it: every "replica_dead" instant lands at or after
 * the heal instant.
 */
TEST(FleetFailover, LinkDownMasksWedgeAtSameInstant)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(1), r1(1);
    const double start = req_us;
    const double fault_at = start + 6.0 * req_us;
    const double heal_at = fault_at + 6.0 * req_us;

    gpusim::FaultPlan wedge_plan;
    wedge_plan.wedge_at_us = fault_at;
    r1.device.installFaults(wedge_plan);

    obs::MetricsRegistry mx;
    obs::Tracer tracer;
    serve::FleetConfig cfg;
    cfg.admission.queue_capacity = 24;
    cfg.admission.shrink_watermark = 8;
    cfg.admission.shed_watermark = 12;
    cfg.max_failovers_high = 2;
    cfg.max_failovers_low = 1;
    cfg.standby_opts = fleetOpts(1);
    cfg.health.probe_interval_us = 2.0 * req_us;
    auto topo = gpusim::Topology::parse(
        "devices 3\nlink 0 1 nvlink\nlink 0 2 nvlink\n");
    ASSERT_TRUE(topo.ok()) << topo.status().toString();
    cfg.net.topology = std::move(topo).value();
    cfg.net.controller_node = 0;
    gpusim::LinkFault cut;
    cut.a = 0;
    cut.b = 2; // r1's node: the wedged replica partitions too
    cut.down_at_us = fault_at; // the tie: same microsecond as wedge
    cut.down_for_us = heal_at - fault_at;
    cfg.net.faults.link_faults.push_back(cut);

    serve::FleetReplica s0 = r0.slot("r0");
    s0.node = 1;
    serve::FleetReplica s1 = r1.slot("r1");
    s1.node = 2;
    serve::Fleet fleet({s0, s1}, cfg, &tracer, &mx);

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 1.5 * 2.0e6 / req_us;
    ac.count = 60;
    ac.deadline_slack_us = 120.0 * req_us;
    ac.low_deadline_slack_us = 130.0 * req_us;
    ac.low_fraction = 0.25;
    ac.seed = 5;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, start, r0.bm->datasetSize()));

    const serve::FleetCounters& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.completed_high, c.admitted_high);
    EXPECT_EQ(c.timed_out_high, 0u);
    EXPECT_EQ(c.failed_high, 0u);
    // The wedge was confirmed -- but only after the heal.
    EXPECT_EQ(c.device_losses, 1u);
    // The partition showed up as silence first: blocked probe sends,
    // not an immediate death.
    EXPECT_GT(fleet.netStats().sends_blocked, 0u);
    bool saw_dead = false;
    for (const obs::TraceEvent& e : tracer.canonical()) {
        if (e.lane != obs::kLaneFleet ||
            std::string(e.name) != "replica_dead")
            continue;
        saw_dead = true;
        EXPECT_GE(e.ts_us, heal_at)
            << "the wedge must stay masked until the link heals";
    }
    EXPECT_TRUE(saw_dead);
}

TEST(FleetFailover, StarTopologyFleetServes)
{
    // The controller is linked to each replica and nothing else, so
    // the initial broadcast tree's (2,3) hop is relayed by the
    // controller instead of failing the constructor.
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(1), r1(1), r2(1);
    serve::FleetConfig cfg;
    cfg.standby_opts = fleetOpts(1);
    auto topo = gpusim::Topology::parse("devices 4\n"
                                        "link 0 1 nvlink\n"
                                        "link 0 2 pcie\n"
                                        "link 0 3 nvlink\n");
    ASSERT_TRUE(topo.ok()) << topo.status().toString();
    cfg.net.topology = std::move(topo).value();
    cfg.net.controller_node = 0;

    std::vector<serve::FleetReplica> slots = {
        r0.slot("r0"), r1.slot("r1"), r2.slot("r2")};
    for (std::size_t i = 0; i < slots.size(); ++i)
        slots[i].node = i + 1;
    serve::Fleet fleet(slots, cfg, nullptr, nullptr);
    EXPECT_EQ(fleet.netStats().param_broadcasts, 1u);

    serve::ArrivalConfig ac;
    ac.rate_per_sec = 0.5 * 3.0e6 / req_us;
    ac.count = 30;
    ac.deadline_slack_us = 120.0 * req_us;
    ac.seed = 9;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, req_us, r0.bm->datasetSize()));

    const serve::FleetCounters& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.arrivals, 30u);
    EXPECT_GT(c.completed, 0u);
    EXPECT_EQ(c.completed + c.timed_out + c.failed, c.admitted);
}

TEST(FleetCounters, BookOutcomeCountsArrivalOnlyOutcomesAsFailed)
{
    // WAL replay decodes any outcome byte up to Shed. The three an
    // admitted request can never reach book as failed, High slice
    // included, so a replayed journal still reconciles.
    serve::FleetCounters c;
    for (const serve::Outcome o :
         {serve::Outcome::RejectedQueueFull,
          serve::Outcome::RejectedInfeasible, serve::Outcome::Shed}) {
        c.bookOutcome(o, serve::RequestClass::High);
        c.bookOutcome(o, serve::RequestClass::Low);
    }
    EXPECT_EQ(c.failed, 6u);
    EXPECT_EQ(c.failed_high, 3u);
    EXPECT_EQ(c.completed + c.timed_out, 0u);
    EXPECT_EQ(c.completed_high + c.timed_out_high, 0u);
    EXPECT_EQ(c.rejected_queue_full + c.rejected_infeasible + c.shed,
              0u);
}

/**
 * Overload AND faults at 8 host threads, with the metrics registry
 * attached: every FleetCounters field must agree exactly with its
 * "fleet.<field>" registry counter, and the dispatch identity must
 * reconcile -- the by-construction accounting survives transient
 * faults, a wedge, and a hedge race all at once.
 */
TEST(FleetSoak, OverloadAndFaultsReconcileWithMetrics)
{
    Replica sizing(1);
    const double req_us = probeReqUs(sizing);

    Replica r0(8), r1(8), r2(8);
    const double start = req_us;
    gpusim::FaultPlan wedge_plan;
    wedge_plan.wedge_at_us = start + 8.0 * req_us;
    r1.device.installFaults(wedge_plan);
    gpusim::FaultPlan flaky_plan;
    flaky_plan.seed = 9;
    flaky_plan.launch_fail_rate = 0.05;
    flaky_plan.loss_ecc_rate = 0.03;
    r2.device.installFaults(flaky_plan);

    obs::MetricsRegistry mx;
    obs::Tracer tracer;
    serve::FleetConfig cfg;
    cfg.admission.queue_capacity = 24;
    cfg.admission.shrink_watermark = 8;
    cfg.admission.shed_watermark = 12;
    cfg.hedge_delay_us = 3.0 * req_us;
    cfg.max_failovers_high = 2;
    cfg.max_failovers_low = 1;
    cfg.health.probe_interval_us = 2.0 * req_us;
    cfg.standby_opts = fleetOpts(8);

    serve::Fleet fleet(
        {r0.slot("r0"), r1.slot("r1"), r2.slot("r2")}, cfg, &tracer,
        &mx);
    serve::ArrivalConfig ac;
    ac.rate_per_sec = 2.0 * 3.0e6 / req_us;
    ac.count = 200;
    ac.deadline_slack_us = 80.0 * req_us;
    ac.low_deadline_slack_us = 90.0 * req_us;
    ac.seed = 31;
    const auto arrivals = serve::generateOpenLoopArrivals(
        ac, start, r0.bm->datasetSize());
    fleet.run(arrivals);

    const auto& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.device_losses, 1u);

    const std::pair<const char*, std::uint64_t> fields[] = {
        {"fleet.arrivals", c.arrivals},
        {"fleet.admitted", c.admitted},
        {"fleet.rejected_queue_full", c.rejected_queue_full},
        {"fleet.rejected_infeasible", c.rejected_infeasible},
        {"fleet.shed", c.shed},
        {"fleet.completed", c.completed},
        {"fleet.timed_out", c.timed_out},
        {"fleet.failed", c.failed},
        {"fleet.admitted_high", c.admitted_high},
        {"fleet.completed_high", c.completed_high},
        {"fleet.timed_out_high", c.timed_out_high},
        {"fleet.failed_high", c.failed_high},
        {"fleet.routed", c.routed},
        {"fleet.failed_over", c.failed_over},
        {"fleet.hedge_cancelled", c.hedge_cancelled},
        {"fleet.fenced", c.fenced},
        {"fleet.lost", c.lost},
        {"fleet.hedges", c.hedges},
        {"fleet.probes", c.probes},
        {"fleet.suspicions", c.suspicions},
        {"fleet.device_losses", c.device_losses},
        {"fleet.standby_joins", c.standby_joins},
        {"fleet.expired_in_queue", c.expired_in_queue},
        {"fleet.drained_no_replica", c.drained_no_replica},
    };
    for (const auto& [name, value] : fields)
        EXPECT_EQ(mx.counterValue(name), value)
            << name << " disagrees with the fleet counter";
    EXPECT_EQ(mx.histogram("fleet.latency_us").count(), c.completed);
    EXPECT_GT(tracer.canonical().size(), 0u);
}

} // namespace

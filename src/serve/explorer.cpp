/** @file Fault-point exploration: sweep, bisection, scenarios. */
#include "serve/explorer.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "durable/stable_store.hpp"
#include "models/tree_lstm.hpp"
#include "serve/arrival.hpp"
#include "serve/fleet.hpp"
#include "serve/service_time.hpp"
#include "vpps/handle.hpp"

namespace serve {

ExploreReport
exploreBoundaries(std::uint64_t end, std::size_t max_points,
                  bool bisect, const PointCheck& check)
{
    ExploreReport rep;
    rep.baseline_end = end;

    // Stratified sweep over [0, end]: evenly spaced points, endpoints
    // included (a fault before the first event or microsecond, and
    // one as the run drains).
    std::vector<std::uint64_t> points;
    const std::size_t budget =
        max_points == 0
            ? static_cast<std::size_t>(end) + 1
            : std::min<std::size_t>(max_points,
                                    static_cast<std::size_t>(end) + 1);
    for (std::size_t i = 0; i < budget; ++i) {
        const std::uint64_t k =
            budget == 1 ? 0
                        : (end * static_cast<std::uint64_t>(i)) /
                              static_cast<std::uint64_t>(budget - 1);
        if (points.empty() || points.back() != k)
            points.push_back(k);
    }

    for (const std::uint64_t k : points) {
        rep.points_tested.push_back(k);
        auto v = check(k);
        if (!v.empty())
            rep.failures.push_back(
                ExploreReport::Failure{k, std::move(v)});
    }

    if (!rep.failures.empty()) {
        // Bisection shrink: narrow the first failure against the
        // nearest passing point below it.
        std::uint64_t bad = rep.failures.front().point;
        std::uint64_t good = 0;
        bool have_good = false;
        for (const std::uint64_t k : points) {
            if (k >= bad)
                break;
            bool failed = false;
            for (const auto& f : rep.failures)
                failed = failed || f.point == k;
            if (!failed) {
                good = k;
                have_good = true;
            }
        }
        if (bisect && have_good) {
            while (bad - good > 1) {
                const std::uint64_t mid = good + (bad - good) / 2;
                rep.points_tested.push_back(mid);
                if (!check(mid).empty())
                    bad = mid;
                else
                    good = mid;
            }
        }
        rep.min_failing = bad;
    }
    return rep;
}

namespace {

// ---------------------------------------------------------------
// The scenario both fault domains share
// ---------------------------------------------------------------

vpps::VppsOptions
rigOpts(int host_threads)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.host_threads = host_threads;
    opts.max_relaunch_attempts = 2;
    return opts;
}

/** One replica built from fixed seeds: every Rig in every run holds
 *  bitwise-identical parameters and dataset, which is what makes a
 *  faulted run's completions comparable to the baseline's. A standby
 *  Rig has no handle (the fleet JITs it on promotion). */
struct Rig
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    explicit Rig(int host_threads, bool standby = false)
    {
        // An inherited soak environment must not perturb the
        // deterministic scenario.
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        if (!standby)
            handle = std::make_unique<vpps::Handle>(
                bm->model(), device, rigOpts(host_threads));
    }

    /** @p node places the replica on a topology node (networked
     *  scenarios only). */
    FleetReplica
    slot(const char* name, std::size_t node = FleetReplica{}.node)
    {
        FleetReplica r{name, &device, bm.get(), handle.get()};
        r.node = node;
        return r;
    }
};

/** The arrival trace, paced by a sizing probe of one request. */
std::vector<Request>
scenarioArrivals(int host_threads, std::size_t n_requests,
                 double low_fraction)
{
    Rig sizing(host_threads);
    const double req_us =
        probeBatchUs(*sizing.handle, sizing.device, *sizing.bm, 1);
    if (req_us < 0.0)
        common::panic("explorer: sizing probe failed");

    ArrivalConfig ac;
    // Mild overload of the two-replica fleet so the fault catches
    // requests queued and in flight, not just idle gaps.
    ac.rate_per_sec = 1.5 * 2.0e6 / req_us;
    ac.count = n_requests;
    // Deadlines must absorb a full recovery (store replay plus a
    // re-JIT measured in simulated seconds) or a fence timeout plus
    // the full down window, so they are effectively unbounded; the
    // explorer's contract is completion-set equality, not latency.
    ac.deadline_slack_us = 1.0e9;
    ac.low_deadline_slack_us = 1.0e9;
    ac.low_fraction = low_fraction;
    ac.seed = 5;
    return generateOpenLoopArrivals(ac, req_us,
                                    sizing.bm->datasetSize());
}

FleetConfig
scenarioFleetConfig(int host_threads, std::size_t n_requests)
{
    FleetConfig fc;
    // Generous admission: every arrival must admit (and, with the
    // effectively unbounded deadlines, complete) so the completion
    // set is exactly the arrival set and the bitwise comparison
    // against the baseline is total.
    fc.admission.queue_capacity = n_requests + 8;
    fc.admission.shrink_watermark = n_requests + 8;
    fc.admission.shed_watermark = n_requests + 8;
    fc.standby_opts = rigOpts(host_threads);
    return fc;
}

/** What one fleet run (or run fragment) completed. */
struct FleetRun
{
    std::map<std::uint64_t, std::uint32_t> responses; //!< id -> bits
    bool duplicate_completion = false;
    FleetCounters counters;
};

void
collectResponses(const Fleet& fleet, FleetRun& out)
{
    out.counters = fleet.counters();
    for (const auto& [id, v] : fleet.responses()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, 4);
        if (!out.responses.emplace(id, bits).second)
            out.duplicate_completion = true;
    }
}

/** Every invariant @p run violates against the fault-free
 *  @p baseline; @p fault names the injected fault. */
std::vector<std::string>
compareToBaseline(const FleetRun& baseline, const FleetRun& run,
                  const std::string& fault)
{
    std::vector<std::string> out;
    const auto at = [&](const std::string& what) {
        return what + " (" + fault + ")";
    };
    if (!run.counters.reconciled())
        out.push_back(at("counters failed to reconcile"));
    if (run.duplicate_completion)
        out.push_back(at("a request id completed twice"));
    const FleetCounters& c = run.counters;
    if (c.admitted_high != c.completed_high || c.timed_out_high != 0 ||
        c.failed_high != 0)
        out.push_back(at("an admitted High-class request was lost"));
    if (run.responses.size() != baseline.responses.size())
        out.push_back(
            at("completion count differs from the fault-free run: " +
               std::to_string(run.responses.size()) + " vs " +
               std::to_string(baseline.responses.size())));
    for (const auto& [id, bits] : baseline.responses) {
        const auto it = run.responses.find(id);
        if (it == run.responses.end()) {
            out.push_back(at("request " + std::to_string(id) +
                             " completed in the fault-free run but "
                             "not under the fault"));
        } else if (it->second != bits) {
            out.push_back(at("request " + std::to_string(id) +
                             " response bits diverged from the "
                             "fault-free run"));
        }
    }
    for (const auto& [id, bits] : run.responses)
        if (baseline.responses.find(id) == baseline.responses.end())
            out.push_back(at("request " + std::to_string(id) +
                             " completed under the fault but not in "
                             "the fault-free run"));
    return out;
}

/** Everything one sweep shares: the arrival trace and the fault-free
 *  ground truth. */
template <class Config, class Run>
struct Context
{
    Config cfg;
    std::vector<Request> arrivals;
    Run baseline;
};

// ---------------------------------------------------------------
// Host-crash domain
// ---------------------------------------------------------------

struct CrashRun : FleetRun
{
    std::uint64_t events = 0;
    std::uint64_t consumed = 0;
    std::uint64_t generation = 0;
    std::size_t resumed_from = 0; //!< arrival index the leg started at
    bool crashed = false;
    std::optional<RecoveryInfo> recovery;
};

using CrashContext = Context<CrashExplorerConfig, CrashRun>;

/** Seed of the stable store's fault stream. */
constexpr std::uint64_t kStoreSeed = 7;

durable::StorePlan
storePlan(const CrashExplorerConfig& cfg)
{
    durable::StorePlan plan;
    plan.seed = kStoreSeed;
    plan.torn_write_rate = cfg.torn_write_rate;
    plan.short_write_rate = cfg.short_write_rate;
    return plan;
}

FleetConfig
crashFleetConfig(const CrashExplorerConfig& cfg,
                 durable::StableStore& store, long long crash_at)
{
    FleetConfig fc =
        scenarioFleetConfig(cfg.host_threads, cfg.n_requests);
    fc.max_failovers_high = 2;
    fc.max_failovers_low = 1;
    fc.durability.store = &store;
    fc.durability.wal_sync_batch = cfg.wal_sync_batch;
    fc.durability.checkpoint_every_completions =
        cfg.checkpoint_every_completions;
    fc.durability.host_faults.host_crash_at_event = crash_at;
    return fc;
}

/** Run the two-replica scenario over @p store, optionally crashing
 *  at @p crash_at. A store that already holds an installed
 *  generation makes the fleet recover first (that is the post-crash
 *  leg), and the arrival source then resumes from the *durable*
 *  acknowledgment point -- the recovered fleet's replayed arrival
 *  count. An arrival consumed in memory whose admit record was still
 *  in the WAL group buffer at the crash was never acknowledged and
 *  must be re-delivered; the torn-tail prefix property (no synced
 *  outcome without its synced admit) guarantees re-delivery can
 *  never double-complete a request. */
CrashRun
runCrashScenario(const CrashExplorerConfig& cfg,
                 durable::StableStore& store, long long crash_at,
                 const std::vector<Request>& arrivals)
{
    Rig r0(cfg.host_threads), r1(cfg.host_threads);
    Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                crashFleetConfig(cfg, store, crash_at));
    const std::size_t from =
        fleet.recovery().has_value()
            ? std::min(static_cast<std::size_t>(
                           fleet.arrivalsConsumed()),
                       arrivals.size())
            : 0;
    fleet.run(std::vector<Request>(
        arrivals.begin() + static_cast<std::ptrdiff_t>(from),
        arrivals.end()));

    CrashRun out;
    collectResponses(fleet, out);
    out.crashed = fleet.crashed();
    out.events = fleet.eventsProcessed();
    out.consumed = fleet.arrivalsConsumed();
    out.generation = fleet.generation();
    out.resumed_from = from;
    out.recovery = fleet.recovery();
    return out;
}

CrashContext
makeCrashContext(const CrashExplorerConfig& cfg)
{
    CrashContext ctx{cfg,
                     scenarioArrivals(cfg.host_threads, cfg.n_requests,
                                      cfg.low_fraction),
                     {}};
    durable::StableStore store(storePlan(cfg));
    ctx.baseline = runCrashScenario(cfg, store, -1, ctx.arrivals);
    return ctx;
}

/** The crash, restart and resume legs at one boundary. */
struct CrashEpisode
{
    CrashRun pre;
    std::uint64_t wal_syncs = 0; //!< store syncs on the pre-crash leg
    std::optional<CrashRun> post; //!< absent when pre never crashed

    /** The run that must match the baseline: the recovered leg, or
     *  the pre-crash one if it finished before boundary k. */
    const CrashRun& last() const { return post ? *post : pre; }
};

CrashEpisode
crashAndRecover(const CrashContext& ctx, std::uint64_t k)
{
    durable::StableStore store(storePlan(ctx.cfg));
    CrashEpisode ep;
    ep.pre = runCrashScenario(ctx.cfg, store, static_cast<long long>(k),
                              ctx.arrivals);
    ep.wal_syncs = store.stats().syncs;
    if (ep.pre.crashed) {
        store.restart();
        ep.post = runCrashScenario(ctx.cfg, store, -1, ctx.arrivals);
    }
    return ep;
}

std::string
crashAt(std::uint64_t k)
{
    return "crash at event " + std::to_string(k);
}

std::vector<std::string>
checkCrash(const CrashContext& ctx, std::uint64_t k)
{
    // A run that finished before boundary k must simply match the
    // baseline (and serves as a determinism cross-check).
    return compareToBaseline(ctx.baseline,
                             crashAndRecover(ctx, k).last(),
                             crashAt(k));
}

// ---------------------------------------------------------------
// Link domain
// ---------------------------------------------------------------

struct LinkRun : FleetRun
{
    NetStats net;
    gpusim::FaultLog link_log;
    double end_us = 0.0;
};

using LinkContext = Context<NetExplorerConfig, LinkRun>;

/** The sweep scenario's node graph: controller on node 0, replicas
 *  on 1 (fast same-rack link) and 2 (slower cross-rack link). The
 *  swept fault cuts the 0-1 link. */
const char* const kSweepTopology = "devices 3\n"
                                   "link 0 1 nvlink\n"
                                   "link 0 2 pcie\n"
                                   "rack 1 2\n";

NetConfig
netConfig(const NetExplorerConfig& cfg, const char* topology,
          double down_at_us)
{
    auto topo = gpusim::Topology::parse(topology);
    if (!topo.ok())
        common::panic("explorer: topology parse failed: ",
                      topo.takeStatus().toString());
    NetConfig nc;
    nc.topology = std::move(topo).value();
    nc.controller_node = 0;
    nc.faults.link_seed = cfg.link_seed;
    if (down_at_us >= 0.0) {
        gpusim::LinkFault lf;
        lf.a = 0;
        lf.b = 1;
        lf.down_at_us = down_at_us;
        lf.down_for_us = cfg.down_for_us;
        nc.faults.link_faults.push_back(lf);
    }
    if (cfg.loss_rate > 0.0)
        for (std::size_t d = 1; d < nc.topology.numDevices(); ++d) {
            gpusim::LinkFault lf;
            lf.a = 0;
            lf.b = d;
            lf.loss_rate = cfg.loss_rate;
            nc.faults.link_faults.push_back(lf);
        }
    return nc;
}

FleetConfig
linkFleetConfig(const NetExplorerConfig& cfg, NetConfig nc)
{
    FleetConfig fc =
        scenarioFleetConfig(cfg.host_threads, cfg.n_requests);
    // Budgets sized for fence-and-reroute plus a residual failure.
    fc.max_failovers_high = 3;
    fc.max_failovers_low = 2;
    fc.net = std::move(nc);
    return fc;
}

LinkRun
collectLink(const Fleet& fleet)
{
    LinkRun out;
    collectResponses(fleet, out);
    out.net = fleet.netStats();
    out.link_log = fleet.net().faultLog();
    out.end_us = fleet.nowUs();
    return out;
}

/** Run the two-replica star scenario; @p down_at_us < 0 runs it
 *  fault-free. */
LinkRun
runLinkScenario(const NetExplorerConfig& cfg, double down_at_us,
                const std::vector<Request>& arrivals)
{
    Rig r0(cfg.host_threads), r1(cfg.host_threads);
    Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2)},
                linkFleetConfig(cfg, netConfig(cfg, kSweepTopology,
                                               down_at_us)));
    fleet.run(arrivals);
    return collectLink(fleet);
}

LinkContext
makeLinkContext(const NetExplorerConfig& cfg)
{
    LinkContext ctx{cfg,
                    scenarioArrivals(cfg.host_threads, cfg.n_requests,
                                     cfg.low_fraction),
                    {}};
    ctx.baseline = runLinkScenario(cfg, -1.0, ctx.arrivals);
    return ctx;
}

std::string
linkDownAt(std::uint64_t t)
{
    return "link down at " + std::to_string(t) + "us";
}

std::vector<std::string>
checkLinkDown(const LinkContext& ctx, std::uint64_t t)
{
    return compareToBaseline(
        ctx.baseline,
        runLinkScenario(ctx.cfg, static_cast<double>(t), ctx.arrivals),
        linkDownAt(t));
}

} // namespace

// ---------------------------------------------------------------
// Host-crash entry points
// ---------------------------------------------------------------

std::vector<std::string>
checkCrashPoint(const CrashExplorerConfig& cfg,
                std::uint64_t crash_event)
{
    return checkCrash(makeCrashContext(cfg), crash_event);
}

ExploreReport
exploreCrashPoints(const CrashExplorerConfig& cfg)
{
    const CrashContext ctx = makeCrashContext(cfg);
    ExploreReport rep = exploreBoundaries(
        ctx.baseline.events, cfg.max_points, cfg.bisect,
        [&](std::uint64_t k) { return checkCrash(ctx, k); });
    rep.baseline_completed = ctx.baseline.counters.completed;
    return rep;
}

RecoveryMeasurement
measureRecovery(const CrashExplorerConfig& cfg,
                double crash_fraction)
{
    const CrashContext ctx = makeCrashContext(cfg);
    RecoveryMeasurement m;
    m.baseline_events = ctx.baseline.events;
    const double f =
        std::min(1.0, std::max(0.0, crash_fraction));
    m.crash_event = static_cast<std::uint64_t>(
        f * static_cast<double>(ctx.baseline.events));

    const CrashEpisode ep = crashAndRecover(ctx, m.crash_event);
    m.wal_syncs = ep.wal_syncs;
    m.checkpoints = ep.pre.generation;
    // Without a crash (the boundary landed past the run's end under
    // this config's durability timing) there is nothing to recover,
    // just validate.
    if (ep.post) {
        if (ep.post->recovery.has_value()) {
            m.recovery_us = ep.post->recovery->recovery_us;
            m.re_jit_us = ep.post->recovery->re_jit_us;
            m.replayed_records = ep.post->recovery->replayed_records;
            m.in_doubt = ep.post->recovery->in_doubt;
        }
        // Arrivals the crashed instance consumed in memory whose
        // admit records never became durable: the source re-delivers
        // them.
        m.redelivered_arrivals =
            ep.pre.consumed > ep.post->resumed_from
                ? ep.pre.consumed - ep.post->resumed_from
                : 0;
    }
    m.completed = ep.last().counters.completed;
    m.violations = compareToBaseline(ctx.baseline, ep.last(),
                                     crashAt(m.crash_event));
    return m;
}

// ---------------------------------------------------------------
// Link entry points
// ---------------------------------------------------------------

std::vector<std::string>
checkLinkDownPoint(const NetExplorerConfig& cfg,
                   std::uint64_t down_at_us)
{
    return checkLinkDown(makeLinkContext(cfg), down_at_us);
}

ExploreReport
exploreLinkDownPoints(const NetExplorerConfig& cfg)
{
    const LinkContext ctx = makeLinkContext(cfg);
    ExploreReport rep = exploreBoundaries(
        static_cast<std::uint64_t>(ctx.baseline.end_us),
        cfg.max_points, cfg.bisect,
        [&](std::uint64_t t) { return checkLinkDown(ctx, t); });
    rep.baseline_completed = ctx.baseline.counters.completed;
    return rep;
}

PartitionMeasurement
measurePartition(const NetExplorerConfig& cfg, double at_fraction)
{
    const LinkContext ctx = makeLinkContext(cfg);
    PartitionMeasurement m;
    m.baseline_end_us =
        static_cast<std::uint64_t>(ctx.baseline.end_us);
    const double f = std::min(1.0, std::max(0.0, at_fraction));
    m.down_at_us = static_cast<std::uint64_t>(
        f * ctx.baseline.end_us);

    const LinkRun run = runLinkScenario(
        cfg, static_cast<double>(m.down_at_us), ctx.arrivals);
    m.faulted_end_us = run.end_us;
    m.completed = run.counters.completed;
    m.baseline_goodput =
        ctx.baseline.end_us > 0.0
            ? static_cast<double>(ctx.baseline.counters.completed) *
                  1e6 / ctx.baseline.end_us
            : 0.0;
    m.faulted_goodput =
        run.end_us > 0.0
            ? static_cast<double>(run.counters.completed) * 1e6 /
                  run.end_us
            : 0.0;
    m.fenced = run.counters.fenced;
    m.fence_drops = run.net.fence_drops;
    m.timeouts = run.net.timeouts;
    m.retransmits = run.net.retransmits;
    m.sends_blocked = run.net.sends_blocked;
    m.unreachable_skips = run.net.unreachable_skips;
    m.link_downs = run.link_log.link_downs;
    m.violations =
        compareToBaseline(ctx.baseline, run, linkDownAt(m.down_at_us));
    return m;
}

PromotionMeasurement
measurePromotion(const NetExplorerConfig& cfg, bool rack_local)
{
    // Controller 0 and the to-be-lost replica (node 1) sit in rack
    // 0; the surviving replica (node 2) in rack 1. The standby is
    // either rack-local to the loss (node 3, fast nvlink) or across
    // racks (node 4, slow nic) -- same blob, different wire.
    const char* const topo_text = "devices 5\n"
                                  "link 0 1 nvlink\n"
                                  "link 0 2 pcie\n"
                                  "link 0 3 nvlink\n"
                                  "link 0 4 nic\n"
                                  "rack 1 2 4\n";
    PromotionMeasurement m;
    m.rack_local = rack_local;
    const std::size_t standby_node = rack_local ? 3 : 4;
    const std::vector<Request> arrivals = scenarioArrivals(
        cfg.host_threads, cfg.n_requests, cfg.low_fraction);

    const auto run = [&](double wedge_at_us) {
        Rig r0(cfg.host_threads), r1(cfg.host_threads);
        Rig sb(cfg.host_threads, /*standby=*/true);
        if (wedge_at_us >= 0.0) {
            gpusim::FaultPlan wedge;
            wedge.wedge_at_us = wedge_at_us;
            r0.device.installFaults(wedge);
        }
        Fleet fleet({r0.slot("r0", 1), r1.slot("r1", 2),
                     sb.slot("sb", standby_node)},
                    linkFleetConfig(cfg,
                                    netConfig(cfg, topo_text, -1.0)));
        fleet.run(arrivals);
        return collectLink(fleet);
    };

    const LinkRun baseline = run(-1.0);
    const double wedge_at_us = 0.4 * baseline.end_us;
    const LinkRun faulted = run(wedge_at_us);
    m.joined = faulted.counters.standby_joins > 0;
    m.ship_bytes = faulted.net.ship_bytes;
    m.ship_chunks = faulted.net.ship_chunks;
    m.ship_retries = faulted.net.ship_retries;
    m.ship_us = faulted.net.ship_us_total;
    m.completed = faulted.counters.completed;
    m.violations = compareToBaseline(
        baseline, faulted,
        "r0 device wedge at " +
            std::to_string(static_cast<std::uint64_t>(wedge_at_us)) +
            "us");
    return m;
}

} // namespace serve

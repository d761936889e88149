/** @file Replicated failover serving: the fleet event loop. */
#include "serve/fleet.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

#include "common/logging.hpp"
#include "durable/manifest.hpp"
#include "durable/wal.hpp"
#include "graph/expr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/durability.hpp"
#include "train/checkpoint_io.hpp"
#include "train/harness.hpp"

namespace serve {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/** @name Control-message sizes on the wire, bytes @{ */
constexpr std::uint64_t kProbeBytes = 64;
constexpr std::uint64_t kDispatchBytes = 512;
constexpr std::uint64_t kCompletionBytes = 128;
/** @} */

/** Modeled CPU cost of replaying one journal record, us. */
constexpr double kReplayUsPerRecord = 5.0;

/** The live path's trace instant and registry counters (all, and
 *  the High slice where one is kept) for one booked disposition. */
struct Mirror
{
    const char* instant;
    const char* metric;
    const char* metric_high; //!< null: no High slice
};

/** Indexed by admission decision (its wire value). */
constexpr Mirror kDecisionMirror[] = {
    {"admit", "fleet.admitted", "fleet.admitted_high"},
    {"reject_queue_full", "fleet.rejected_queue_full", nullptr},
    {"reject_infeasible", "fleet.rejected_infeasible", nullptr},
    {"shed", "fleet.shed", nullptr},
};

/** Indexed by Outcome: the three a finalized request books. */
constexpr Mirror kOutcomeMirror[] = {
    {"complete", "fleet.completed", "fleet.completed_high"},
    {"timeout", "fleet.timed_out", "fleet.timed_out_high"},
    {"fail", "fleet.failed", "fleet.failed_high"},
};
static_assert(static_cast<int>(Outcome::Completed) == 0 &&
              static_cast<int>(Outcome::TimedOut) == 1 &&
              static_cast<int>(Outcome::Failed) == 2);

} // namespace

void
FleetCounters::bookDecision(AdmissionController::Decision dec,
                            RequestClass cls)
{
    ++arrivals;
    switch (dec) {
    case AdmissionController::Decision::Admit:
        ++admitted;
        if (cls == RequestClass::High)
            ++admitted_high;
        break;
    case AdmissionController::Decision::RejectQueueFull:
        ++rejected_queue_full;
        break;
    case AdmissionController::Decision::RejectInfeasible:
        ++rejected_infeasible;
        break;
    case AdmissionController::Decision::Shed:
        ++shed;
        break;
    }
}

void
FleetCounters::bookOutcome(Outcome outcome, RequestClass cls)
{
    const bool high = cls == RequestClass::High;
    switch (outcome) {
    case Outcome::Completed:
        ++completed;
        if (high)
            ++completed_high;
        break;
    case Outcome::TimedOut:
        ++timed_out;
        if (high)
            ++timed_out_high;
        break;
    default:
        ++failed;
        if (high)
            ++failed_high;
        break;
    }
}

Fleet::Fleet(std::vector<FleetReplica> replicas, FleetConfig cfg,
             obs::Tracer* tracer, obs::MetricsRegistry* metrics)
    : cfg_(std::move(cfg)), admission_(cfg_.admission),
      // max_batch 1, window 0: requests route individually and
      // immediately, which is what makes responses bitwise
      // comparable across replicas.
      queue_(BatchPolicy{1, 0.0}),
      health_(cfg_.health, replicas.size(), 0.0), tracer_(tracer),
      metrics_(metrics)
{
    if (replicas.empty())
        common::panic("Fleet: need at least one replica");
    slots_.reserve(replicas.size());
    std::size_t first_active = kNpos;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        FleetReplica& r = replicas[i];
        if (r.device == nullptr || r.bm == nullptr)
            common::panic("Fleet: replica '", r.name,
                          "' missing device or model");
        Slot sl;
        sl.r = r;
        sl.breaker = CircuitBreaker(cfg_.breaker);
        sl.state = r.handle != nullptr ? ReplicaState::Active
                                       : ReplicaState::Standby;
        sl.node = r.node != kNpos ? r.node : i;
        if (sl.state == ReplicaState::Active && first_active == kNpos)
            first_active = i;
        slots_.push_back(std::move(sl));
    }
    if (first_active == kNpos)
        common::panic("Fleet: need at least one active replica "
                      "(all slots are standby)");
    was_suspect_.assign(slots_.size(), false);

    Slot& lead = slots_[first_active];
    // Analytic prior for admission: nodes in one input's graph.
    {
        graph::ComputationGraph cg;
        lead.r.bm->buildLoss(cg, 0);
        nodes_per_item_ =
            std::max<double>(1.0, static_cast<double>(cg.size()));
    }
    // The standby replication source: the lead replica's parameters,
    // serialized through the checkpoint wire format. Replicas are
    // expected to be constructed with identical seeds, so one blob
    // replicates the whole fleet.
    ckpt_blob_ = train::serializeCheckpoint(
        train::captureCheckpoint(lead.r.bm->model(), *lead.r.device, 0));
    svc_cache_ =
        lead.r.handle->estimateBatchUs(1, nodes_per_item_);

    for (const Slot& sl : slots_)
        if (sl.state == ReplicaState::Active)
            now_ = std::max(now_, sl.r.device->clockUs());

    net_ = NetworkModel(cfg_.net, tracer_, metrics_);
    if (net_.enabled()) {
        const std::size_t nodes = cfg_.net.topology.numDevices();
        if (cfg_.net.controller_node >= nodes)
            common::panic("Fleet: controller node ",
                          cfg_.net.controller_node,
                          " outside the topology (", nodes,
                          " nodes)");
        for (const Slot& sl : slots_)
            if (sl.node >= nodes)
                common::panic("Fleet: replica '", sl.r.name,
                              "' on node ", sl.node,
                              " outside the topology (", nodes,
                              " nodes)");
        // Seeding every node with the parameters is a broadcast over
        // the links, priced with the pipelined tree closed form; the
        // fleet clock starts after it lands.
        if (nodes > 1) {
            auto bc = net_.paramBroadcastUs(
                static_cast<std::uint64_t>(ckpt_blob_.size()), now_);
            if (!bc.ok())
                common::panic("Fleet: initial parameter broadcast "
                              "failed: ",
                              bc.status().toString());
            now_ += bc.value();
        }
    }

    health_ = HealthMonitor(cfg_.health, slots_.size(), now_);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].state != ReplicaState::Active)
            health_.disable(i);

    if (cfg_.durability.store != nullptr ||
        cfg_.durability.host_faults.anyHostDomain())
        initDurability();
}

Fleet::~Fleet() = default;

void
Fleet::count(const char* name, std::uint64_t n)
{
    if (metrics_ != nullptr)
        metrics_->counter(name).add(n);
}

void
Fleet::fleetInstant(const char* name, std::uint64_t req_id, double a0,
                    double a1)
{
    if (tracer_ != nullptr)
        tracer_->instant(obs::kLaneFleet, "fleet", name, now_,
                         static_cast<std::int64_t>(req_id), a0, a1);
}

vpps::Handle*
Fleet::handleOf(Slot& sl)
{
    return sl.owned ? sl.owned.get() : sl.r.handle;
}

double
Fleet::serviceUs()
{
    for (Slot& sl : slots_) {
        if (sl.state != ReplicaState::Active)
            continue;
        svc_cache_ =
            handleOf(sl)->estimateBatchUs(1, nodes_per_item_);
        break;
    }
    return svc_cache_;
}

double
Fleet::earliestFreeUs() const
{
    double t = kInf;
    for (const Slot& sl : slots_) {
        if (sl.state != ReplicaState::Active)
            continue;
        const double free =
            sl.inflight ? sl.inflight->done_at_us : now_;
        t = std::min(t, free);
    }
    return t;
}

std::size_t
Fleet::liveReplicas() const
{
    std::size_t n = 0;
    for (const Slot& sl : slots_)
        if (sl.state == ReplicaState::Active)
            ++n;
    return n;
}

void
Fleet::onArrival(const Request& req)
{
    const std::size_t depth = queue_.depth();
    const BrownoutLevel level = admission_.levelFor(depth);

    // Earliest start: the first live replica to free up, plus the
    // backlog spread across the live fleet.
    const std::size_t live = liveReplicas();
    const double svc = serviceUs();
    double est_start = std::max(now_, earliestFreeUs());
    if (live > 0)
        est_start += static_cast<double>(depth) * svc /
                     static_cast<double>(live);

    const auto dec = admission_.decide(req, depth, est_start, svc);
    counters_.bookDecision(dec, req.cls);
    const Mirror& mirror = kDecisionMirror[static_cast<std::size_t>(dec)];
    count("fleet.arrivals");
    count(mirror.metric);
    if (mirror.metric_high != nullptr && req.cls == RequestClass::High)
        count(mirror.metric_high);
    fleetInstant(mirror.instant, req.id, static_cast<double>(level),
                 static_cast<double>(depth));
    if (dec == AdmissionController::Decision::Admit)
        queue_.enqueue(Queued{req, 0, now_});
    journalAdmit(req, dec);
}

std::size_t
Fleet::chooseReplica(double now_us, std::size_t exclude)
{
    const std::size_t n = slots_.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (rr_next_ + k) % n;
        Slot& sl = slots_[i];
        if (i == exclude || sl.state != ReplicaState::Active ||
            sl.inflight)
            continue;
        if (health_.suspect(i, now_us))
            continue;
        // Partitioned replicas are skipped outright: a dispatch sent
        // into a down link is a guaranteed fence, so the router does
        // not waste the attempt (the replica may be perfectly
        // healthy on the far side).
        if (net_.enabled() && sl.node != cfg_.net.controller_node &&
            !net_.pathUp(cfg_.net.controller_node, sl.node, now_us)) {
            net_.noteUnreachableSkip();
            continue;
        }
        // The breaker gate last: usePrimary() mutates (Open ->
        // HalfOpen probe), so only the otherwise-chosen replica is
        // asked.
        const CircuitBreaker::State before = sl.breaker.state();
        const bool allow = sl.breaker.usePrimary(now_us);
        if (sl.breaker.state() != before && tracer_ != nullptr)
            tracer_->instant(
                obs::kLaneReplicaBase + static_cast<std::int32_t>(i),
                "breaker", breakerStateName(sl.breaker.state()),
                now_us, static_cast<std::int64_t>(i),
                static_cast<double>(before));
        if (!allow)
            continue;
        rr_next_ = (i + 1) % n;
        return i;
    }
    return kNpos;
}

double
Fleet::effectiveTimeoutUs()
{
    if (cfg_.net.inflight_timeout_us > 0.0)
        return cfg_.net.inflight_timeout_us;
    return 20.0 * serviceUs();
}

void
Fleet::execute(std::size_t s, Queued q, bool as_hedge)
{
    Slot& sl = slots_[s];
    vpps::Handle* const h = handleOf(sl);

    ++counters_.routed;
    count("fleet.routed");
    ++sl.dispatches;
    fleetInstant(as_hedge          ? "hedge"
                 : q.attempts > 0 ? "failover_route"
                                  : "route",
                 q.req.id, static_cast<double>(s),
                 static_cast<double>(q.attempts));

    InFlight fl;
    fl.q = q;
    fl.is_hedge = as_hedge;
    if (net_.enabled()) {
        const auto it = fence_epoch_.find(q.req.id);
        fl.epoch = it != fence_epoch_.end() ? it->second : 0;
    }
    if (!as_hedge && q.req.cls == RequestClass::High &&
        cfg_.hedge_delay_us >= 0.0)
        fl.hedge_at_us = now_ + cfg_.hedge_delay_us;

    // The dispatch message crosses the controller->replica path
    // first; the replica starts only once (and if) it lands.
    double start = now_;
    const std::size_t ctrl = cfg_.net.controller_node;
    if (net_.enabled() && sl.node != ctrl) {
        const NetworkModel::SendOutcome out = net_.send(
            ctrl, sl.node, kDispatchBytes, now_, "dispatch");
        if (!out.delivered) {
            // Blocked or lost in flight: the replica never hears of
            // this dispatch. The controller sees a busy slot and a
            // completion that never comes; the fence timeout retires
            // the zombie and re-routes the request.
            fl.ok = false;
            fl.err = common::ErrorCode::Unavailable;
            fl.done_at_us = kInf;
            // No reply can ever arrive (the replica never heard of
            // the dispatch), so fencing early is safe; the margin
            // alone bounds how long the slot stays wedged.
            fl.timeout_at_us = now_ + effectiveTimeoutUs();
            sl.inflight = fl;
            fleetInstant("dispatch_lost", q.req.id,
                         static_cast<double>(s));
            return;
        }
        start = now_ + out.delay_us;
    }

    sl.r.device->advanceClockTo(start);
    graph::ComputationGraph cg;
    auto loss = sl.r.bm->buildLoss(cg, q.req.input_index);
    const double wall_before = h->stats().wall_us;
    const double busy_before = sl.r.device->busyUs();
    auto r = h->inferTry(sl.r.bm->model(), cg, loss);
    // Simulated dispatch duration: pipelined wall time on success,
    // device time burned by the failed attempt otherwise. A stall
    // penalty is charged to the device clock, not the pipeline
    // makespan, so occupancy is the max of the two -- otherwise a
    // stalled dispatch would look fast and its hedge timer could
    // never fire. Clamped so completion strictly follows dispatch.
    const double busy_delta = sl.r.device->busyUs() - busy_before;
    double dur = r.ok() ? std::max(h->stats().wall_us - wall_before,
                                   busy_delta)
                        : busy_delta;
    if (dur < 1.0)
        dur = 1.0;

    fl.ok = r.ok();
    fl.err = r.ok() ? common::ErrorCode::Ok : r.status().code();
    fl.response = r.ok() ? r.value() : 0.0f;
    fl.done_at_us = start + dur;
    if (net_.enabled() && sl.node != ctrl)
        // The completion message retransmits under the backoff
        // ladder until it gets through; +inf (partition outlives the
        // ladder) leaves a zombie for the fence timeout.
        fl.done_at_us = net_.reliableDeliveryAtUs(
            sl.node, ctrl, kCompletionBytes, start + dur);
    if (net_.enabled())
        // The timeout is armed relative to the dispatch's modeled
        // completion instant (the controller's service-model
        // expectation), so the margin prices wire lateness alone: a
        // healthy reply beats it by construction, while one stuck
        // behind a down window is fenced and the request re-routed
        // long before the retransmit ladder delivers the -- now
        // stale -- reply.
        fl.timeout_at_us = start + dur + effectiveTimeoutUs();
    sl.inflight = fl;

    if (tracer_ != nullptr)
        tracer_->complete(
            obs::kLaneReplicaBase + static_cast<std::int32_t>(s),
            "fleet", as_hedge ? "hedge_dispatch" : "dispatch", start,
            dur, static_cast<std::int64_t>(q.req.id),
            r.ok() ? 1.0 : 0.0);
}

void
Fleet::finalizeRequest(const Queued& q, Outcome outcome,
                       float response, double latency)
{
    counters_.bookOutcome(outcome, q.req.cls);
    const Mirror& mirror =
        kOutcomeMirror[static_cast<std::size_t>(outcome)];
    count(mirror.metric);
    if (q.req.cls == RequestClass::High)
        count(mirror.metric_high);
    fleetInstant(mirror.instant, q.req.id);
    journalOutcome(q, outcome, response, latency);
}

std::size_t
Fleet::twinOf(std::uint64_t id, std::size_t self) const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (i == self)
            continue;
        // A fenced dispatch no longer carries its request; its late
        // completion is dropped, so it is not a live twin.
        if (slots_[i].inflight && !slots_[i].inflight->fenced &&
            slots_[i].inflight->q.req.id == id)
            return i;
    }
    return kNpos;
}

void
Fleet::completeOn(std::size_t s)
{
    Slot& sl = slots_[s];
    const InFlight fl = *sl.inflight;
    sl.inflight.reset();
    const std::uint64_t id = fl.q.req.id;
    const std::size_t twin = twinOf(id, s);

    if (fl.fenced) {
        // The controller fenced this epoch while the completion was
        // stuck behind the partition; the request has moved on, and
        // the stale result is discarded on arrival -- a healed
        // partition can never double-complete (this dispatch already
        // booked as `fenced`). Breakers are not charged with stale
        // outcomes; a wedge report is still a wedge.
        net_.noteFenceDrop(id, fl.epoch, now_);
        fleetInstant("fence_drop", id, static_cast<double>(s),
                     static_cast<double>(fl.epoch));
        if (fl.err == common::ErrorCode::DeviceLost)
            onDeviceLost(s);
        return;
    }

    if (auto it = finalized_pending_.find(id);
        it != finalized_pending_.end()) {
        // The request's other dispatch already won; this one is the
        // cancelled hedge loser regardless of its own outcome.
        finalized_pending_.erase(it);
        ++counters_.hedge_cancelled;
        count("fleet.hedge_cancelled");
        fleetInstant("hedge_cancel", id, static_cast<double>(s));
    } else if (fl.ok && fl.done_at_us <= fl.q.req.deadline_us) {
        const double latency = fl.done_at_us - fl.q.req.arrival_us;
        finalizeRequest(fl.q, Outcome::Completed, fl.response,
                        latency);
        responses_.emplace_back(id, fl.response);
        latencies_.push_back(latency);
        if (metrics_ != nullptr)
            metrics_->histogram("fleet.latency_us").observe(latency);
        if (twin != kNpos)
            finalized_pending_.insert(id);
    } else if (fl.ok) {
        // Completed past the deadline: the work is wasted either
        // way. A still-running twin was in flight at an instant
        // already past the deadline, so it must finish late too --
        // the request is definitively timed out; mark it finalized
        // so the twin's completion books as a cancelled hedge.
        ++counters_.lost;
        count("fleet.lost");
        fleetInstant("lost", id, static_cast<double>(s));
        finalizeRequest(fl.q, Outcome::TimedOut);
        if (twin != kNpos)
            finalized_pending_.insert(id);
    } else if (twin != kNpos) {
        // Failed, but the request's hedge twin is still running; the
        // twin carries the request from here.
        ++counters_.lost;
        count("fleet.lost");
        fleetInstant("lost", id, static_cast<double>(s));
    } else {
        const int budget = fl.q.req.cls == RequestClass::High
                               ? cfg_.max_failovers_high
                               : cfg_.max_failovers_low;
        bool routable = false;
        for (const Slot& other : slots_)
            if (&other != &sl &&
                (other.state == ReplicaState::Active ||
                 other.state == ReplicaState::Joining))
                routable = true;
        if (fl.q.attempts < budget && fl.q.req.deadline_us > now_ &&
            routable) {
            ++counters_.failed_over;
            count("fleet.failed_over");
            Queued again = fl.q;
            ++again.attempts;
            again.enqueue_us = now_;
            queue_.enqueueFront(std::move(again));
            fleetInstant("failover", id, static_cast<double>(s),
                         static_cast<double>(fl.q.attempts + 1));
        } else {
            ++counters_.lost;
            count("fleet.lost");
            fleetInstant("lost", id, static_cast<double>(s));
            finalizeRequest(fl.q, fl.q.req.deadline_us <= now_
                                      ? Outcome::TimedOut
                                      : Outcome::Failed);
        }
    }

    if (sl.state == ReplicaState::Active) {
        if (fl.ok) {
            sl.breaker.onPrimarySuccess();
        } else {
            ++sl.failures;
            const CircuitBreaker::State before = sl.breaker.state();
            sl.breaker.onPrimaryFailure(now_);
            if (sl.breaker.state() != before && tracer_ != nullptr)
                tracer_->instant(obs::kLaneReplicaBase +
                                     static_cast<std::int32_t>(s),
                                 "breaker",
                                 breakerStateName(sl.breaker.state()),
                                 now_, static_cast<std::int64_t>(s),
                                 static_cast<double>(before));
        }
    }
    if (fl.err == common::ErrorCode::DeviceLost)
        onDeviceLost(s);
}

void
Fleet::onDeviceLost(std::size_t s)
{
    Slot& sl = slots_[s];
    if (sl.state != ReplicaState::Active)
        return; // already confirmed through the other path
    sl.state = ReplicaState::Dead;
    ++counters_.device_losses;
    count("fleet.device_losses");
    health_.disable(s);
    fleetInstant("replica_dead", 0, static_cast<double>(s));
    common::warn("Fleet: replica '", sl.r.name,
                 "' lost (device wedged); ", liveReplicas(),
                 " still live");
    promoteStandby(s);
}

void
Fleet::promoteStandby(std::size_t lost)
{
    std::vector<std::size_t> cands;
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].state == ReplicaState::Standby)
            cands.push_back(i);
    if (cands.empty())
        return;
    if (net_.enabled()) {
        // Rack-locality-aware failover: a standby in the lost
        // replica's rack first (it keeps per-rack capacity and its
        // links are the short ones), then whoever is cheapest to
        // ship the parameters to from the controller, then slot
        // index. The keys are static topology properties, so the
        // order is deterministic.
        const std::size_t ctrl = cfg_.net.controller_node;
        const std::uint64_t blob =
            static_cast<std::uint64_t>(ckpt_blob_.size());
        std::sort(
            cands.begin(), cands.end(),
            [&](std::size_t x, std::size_t y) {
                if (lost != kNpos) {
                    const bool rx = cfg_.net.topology.sameRack(
                        slots_[x].node, slots_[lost].node);
                    const bool ry = cfg_.net.topology.sameRack(
                        slots_[y].node, slots_[lost].node);
                    if (rx != ry)
                        return rx;
                }
                const double cx =
                    net_.scoreUs(ctrl, slots_[x].node, blob);
                const double cy =
                    net_.scoreUs(ctrl, slots_[y].node, blob);
                if (cx != cy)
                    return cx < cy;
                return x < y;
            });
    }
    for (const std::size_t idx : cands) {
        Slot& sl = slots_[idx];
        double ready_at = now_;
        if (net_.enabled() && sl.node != cfg_.net.controller_node) {
            // The parameter blob ships chunked over the links and
            // resumes from its byte offset across losses and down
            // windows. A failed ship (permanent cut / retries
            // exhausted) leaves the standby warm for a later attempt
            // and tries the next candidate.
            const NetworkModel::ShipOutcome ship = net_.ship(
                cfg_.net.controller_node, sl.node,
                static_cast<std::uint64_t>(ckpt_blob_.size()), now_);
            if (!ship.ok) {
                fleetInstant("standby_ship_failed", 0,
                             static_cast<double>(idx));
                common::warn("Fleet: standby '", sl.r.name,
                             "' parameter ship failed; trying the "
                             "next candidate");
                continue;
            }
            ready_at = ship.done_at_us;
        }
        sl.r.device->advanceClockTo(now_);
        // Parameter replication first, then the re-JIT; the handle
        // build is the expensive part and its modeled compile time
        // (plus the ship time and the configured provisioning delay)
        // gates the join instant.
        if (auto st = train::restoreCheckpointBlob(
                ckpt_blob_, sl.r.bm->model(), *sl.r.device);
            !st.ok()) {
            sl.state = ReplicaState::Dead;
            common::warn("Fleet: standby '", sl.r.name,
                         "' restore failed: ", st.toString());
            return;
        }
        auto hr = vpps::Handle::tryCreate(
            sl.r.bm->model(), *sl.r.device, cfg_.standby_opts);
        if (!hr.ok()) {
            sl.state = ReplicaState::Dead;
            common::warn("Fleet: standby '", sl.r.name,
                         "' rebuild failed: ",
                         hr.status().toString());
            return;
        }
        sl.owned = std::move(hr.value());
        const double delay =
            std::max(1.0, sl.owned->jitSeconds() * 1e6);
        sl.join_at_us = ready_at + delay;
        sl.state = ReplicaState::Joining;
        fleetInstant("standby_promote", 0, static_cast<double>(idx),
                     delay + (ready_at - now_));
        return;
    }
}

void
Fleet::joinReplica(std::size_t s)
{
    Slot& sl = slots_[s];
    sl.r.device->advanceClockTo(now_);
    sl.state = ReplicaState::Active;
    sl.breaker = CircuitBreaker(cfg_.breaker);
    health_.reset(s, now_);
    was_suspect_[s] = false;
    ++counters_.standby_joins;
    count("fleet.standby_joins");
    fleetInstant("replica_join", 0, static_cast<double>(s));
    common::inform("Fleet: standby '", sl.r.name,
                   "' joined the rotation");
}

void
Fleet::processProbe(std::size_t r)
{
    Slot& sl = slots_[r];
    ++counters_.probes;
    count("fleet.probes");
    bool alive = sl.state == ReplicaState::Active;
    bool wedged = false;
    double rtt = 0.0;
    double t_arr = now_;
    const bool wired = net_.enabled() &&
                       sl.node != cfg_.net.controller_node;
    if (alive && wired) {
        // Tie order, documented and tested (fleet_failover): the
        // probe consults the *link* at its send instant before it
        // can consult the device, so when a link-down window opens
        // at the same microsecond a device wedges, the partition
        // masks the wedge -- the probe never reaches the device, the
        // replica just goes silent, and the wedge is confirmed only
        // by the first probe through the healed link.
        const NetworkModel::SendOutcome out =
            net_.send(cfg_.net.controller_node, sl.node,
                      kProbeBytes, now_, "probe");
        if (!out.delivered)
            alive = false; // blocked or lost: silence, phi grows
        else
            t_arr = now_ + out.delay_us;
    }
    if (alive) {
        // The device answers as of the probe's *arrival* instant.
        if (gpusim::FaultInjector* inj = sl.r.device->faults()) {
            if (inj->deviceWedged(t_arr)) {
                alive = false;
                wedged = true;
            } else if (inj->stallPenaltyUs(t_arr) > 0.0) {
                alive = false; // stalled: silent, but not dead
            }
        }
    }
    if (alive && wired) {
        const NetworkModel::SendOutcome back =
            net_.send(sl.node, cfg_.net.controller_node,
                      kProbeBytes, t_arr, "probe_reply");
        if (!back.delivered) {
            alive = false; // reply dropped on the way home
        } else {
            rtt = (t_arr - now_) + back.delay_us;
            net_.noteProbeReply(r, rtt, now_ + rtt);
        }
    }
    health_.recordProbe(r, now_, alive, rtt);
    const bool sus =
        sl.state == ReplicaState::Active && health_.suspect(r, now_);
    if (sus && !was_suspect_[r]) {
        ++counters_.suspicions;
        count("fleet.suspicions");
        fleetInstant("replica_suspect", 0, static_cast<double>(r),
                     health_.detector(r).phi(now_));
    }
    was_suspect_[r] = sus;
    if (wedged)
        onDeviceLost(r);
}

void
Fleet::onInflightTimeout(std::size_t s)
{
    Slot& sl = slots_[s];
    InFlight& fl = *sl.inflight;
    const std::uint64_t id = fl.q.req.id;
    net_.noteTimeout(id, now_);

    if (auto it = finalized_pending_.find(id);
        it != finalized_pending_.end()) {
        // The request's other dispatch already won; this silent one
        // retires as the cancelled hedge loser, reply or no reply.
        finalized_pending_.erase(it);
        ++counters_.hedge_cancelled;
        count("fleet.hedge_cancelled");
        fleetInstant("hedge_cancel", id, static_cast<double>(s));
        sl.inflight.reset();
        return;
    }

    // Fence the epoch: this dispatch's result -- should the
    // partition heal and deliver it -- is stale by construction.
    // `fenced` is the dispatch's terminal disposition (the routed
    // identity stays closed); the request itself re-routes below.
    const int epoch = ++fence_epoch_[id];
    ++counters_.fenced;
    count("fleet.fenced");
    net_.noteFence(id, epoch, now_);
    fleetInstant("fence", id, static_cast<double>(s),
                 static_cast<double>(epoch));

    const Queued q = fl.q;
    const bool zombie = fl.done_at_us == kInf;
    if (zombie) {
        // The completion can never arrive (the dispatch message was
        // dropped, or the retransmit ladder outlived the partition):
        // free the slot now so the loop keeps terminating.
        sl.inflight.reset();
    } else {
        // The stale reply is still on its way; the slot stays busy
        // until it lands and is dropped (completeOn's fence path).
        fl.fenced = true;
        fl.timeout_at_us = -1.0;
        fl.hedge_at_us = -1.0;
    }

    if (twinOf(id, s) != kNpos)
        return; // a live twin still carries the request

    const int budget = q.req.cls == RequestClass::High
                           ? cfg_.max_failovers_high
                           : cfg_.max_failovers_low;
    bool routable = false;
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if ((i != s || zombie) &&
            (slots_[i].state == ReplicaState::Active ||
             slots_[i].state == ReplicaState::Joining))
            routable = true;
    if (q.attempts < budget && q.req.deadline_us > now_ &&
        routable) {
        Queued again = q;
        ++again.attempts;
        again.enqueue_us = now_;
        queue_.enqueueFront(std::move(again));
        fleetInstant("fence_reroute", id, static_cast<double>(s),
                     static_cast<double>(q.attempts + 1));
    } else {
        finalizeRequest(q, q.req.deadline_us <= now_
                               ? Outcome::TimedOut
                               : Outcome::Failed);
    }
}

void
Fleet::expireQueued()
{
    for (const Queued& dead : queue_.expire(now_)) {
        finalizeRequest(dead, Outcome::TimedOut);
        ++counters_.expired_in_queue;
        count("fleet.expired_in_queue");
    }
}

void
Fleet::drainUnroutable()
{
    // No live replica, none joining: every queued request gets its
    // final disposition now instead of hanging forever.
    expireQueued();
    while (!queue_.empty()) {
        for (const Queued& q : queue_.form(now_)) {
            finalizeRequest(q, q.req.deadline_us <= now_
                                   ? Outcome::TimedOut
                                   : Outcome::Failed);
            ++counters_.drained_no_replica;
            count("fleet.drained_no_replica");
        }
    }
}

void
Fleet::run(const std::vector<Request>& arrivals)
{
    if (crashed_)
        return;
    std::size_t next = 0;
    bool dispatch_stalled = false;
    while (true) {
        // Host crash fires only here, at an event boundary: the
        // process dies between events, never mid-event, so durable
        // state is always a prefix of the event history.
        if (host_faults_ &&
            host_faults_->hostCrashAtBoundary(events_)) {
            hostCrash();
            return;
        }

        bool inflight_any = false;
        bool joining_any = false;
        for (const Slot& sl : slots_) {
            inflight_any = inflight_any || sl.inflight.has_value();
            joining_any =
                joining_any || sl.state == ReplicaState::Joining;
        }
        if (next >= arrivals.size() && queue_.empty() &&
            !inflight_any && !joining_any)
            break;

        // Candidate events in a fixed tie order: completion, fence
        // timeout, standby join, health probe, arrival, hedge
        // launch, dispatch. Completion outranks timeout so a reply
        // landing exactly at the fence instant still completes.
        enum
        {
            kNone,
            kComplete,
            kTimeout,
            kJoin,
            kProbe,
            kArrive,
            kHedge,
            kDispatch
        };
        int kind = kNone;
        std::size_t slot = kNpos;
        double when = kInf;
        auto consider = [&](int k, double t, std::size_t s) {
            if (t < when) {
                kind = k;
                when = t;
                slot = s;
            }
        };

        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].inflight)
                consider(kComplete, slots_[i].inflight->done_at_us,
                         i);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].inflight && !slots_[i].inflight->fenced &&
                slots_[i].inflight->timeout_at_us >= 0.0)
                consider(kTimeout,
                         slots_[i].inflight->timeout_at_us, i);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].state == ReplicaState::Joining)
                consider(kJoin, slots_[i].join_at_us, i);
        if (const double p = health_.nextProbeUs(); p < kInf)
            consider(kProbe, p, health_.nextProbeReplica());
        if (next < arrivals.size())
            consider(kArrive, arrivals[next].arrival_us, kNpos);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const auto& fl = slots_[i].inflight;
            if (fl && !fl->is_hedge && !fl->hedged &&
                fl->hedge_at_us >= 0.0)
                consider(kHedge, fl->hedge_at_us, i);
        }
        if (!dispatch_stalled && !queue_.empty()) {
            const double r = queue_.readyAt(
                admission_.levelFor(queue_.depth()), 0.0);
            if (r >= 0.0)
                consider(kDispatch, std::max(r, now_), kNpos);
        }

        if (kind == kNone) {
            // Unreachable work: queued requests but no replica can
            // ever take them (fleet dead) and nothing else pending.
            if (!queue_.empty())
                drainUnroutable();
            break;
        }

        now_ = std::max(now_, when);
        switch (kind) {
        case kComplete:
            completeOn(slot);
            dispatch_stalled = false;
            break;
        case kTimeout:
            onInflightTimeout(slot);
            dispatch_stalled = false;
            break;
        case kJoin:
            joinReplica(slot);
            dispatch_stalled = false;
            break;
        case kProbe:
            processProbe(slot);
            dispatch_stalled = false;
            break;
        case kArrive:
            onArrival(arrivals[next++]);
            dispatch_stalled = false;
            break;
        case kHedge: {
            Slot& sl = slots_[slot];
            const std::size_t target = chooseReplica(now_, slot);
            if (target != kNpos) {
                sl.inflight->hedged = true; // one shot once launched
                ++counters_.hedges;
                count("fleet.hedges");
                execute(target, sl.inflight->q, true);
            } else {
                // No spare capacity right now; re-arm to the next
                // completion on another replica rather than forfeit.
                // The hedge event outranks queued dispatch at equal
                // times, so the hedge -- launched for an older
                // request -- claims the freed slot ahead of the
                // queue. Completion retires this slot's hedge
                // candidate and the step is strictly positive, so
                // this terminates.
                double next = now_ + std::max(1.0, cfg_.hedge_delay_us);
                for (std::size_t i = 0; i < slots_.size(); ++i) {
                    const Slot& o = slots_[i];
                    if (i == slot || o.state != ReplicaState::Active ||
                        !o.inflight)
                        continue;
                    next = std::min(next, o.inflight->done_at_us);
                }
                sl.inflight->hedge_at_us = std::max(next, now_ + 1.0);
            }
            break;
        }
        case kDispatch: {
            expireQueued();
            std::vector<Queued> items = queue_.form(now_);
            if (items.empty())
                break; // everything expired this round
            const std::size_t target = chooseReplica(now_, kNpos);
            if (target == kNpos) {
                // Nothing routable right now; put the request back
                // and stall dispatch until another event (probe,
                // completion, join) changes the routing picture.
                queue_.enqueueFront(std::move(items.front()));
                dispatch_stalled = true;
                break;
            }
            execute(target, std::move(items.front()), false);
            break;
        }
        default:
            break;
        }
        ++events_;
        if (kind == kComplete)
            maybeCheckpoint();
    }
    // Clean shutdown: whatever the group-commit batch was, the
    // journal tail is made durable before run() returns.
    syncWalIfDue(true);
}

void
Fleet::initDurability()
{
    DurabilityConfig& d = cfg_.durability;
    if (d.host_faults.anyHostDomain())
        host_faults_.emplace(d.host_faults);
    if (d.store == nullptr)
        return; // crash-only configuration (no persistence)
    ckpt_store_ =
        std::make_unique<durable::CheckpointStore>(*d.store, d.dir);
    if (ckpt_store_->hasState()) {
        recoverFromStore();
    } else {
        installCheckpoint();
        if (generation_ == 0)
            common::panic(
                "Fleet: initial checkpoint install failed");
    }
}

void
Fleet::durableInstant(const char* name, double a0, double a1)
{
    if (tracer_ != nullptr)
        tracer_->instant(obs::kLaneDurable, "durable", name, now_,
                         static_cast<std::int64_t>(events_), a0, a1);
}

void
Fleet::journalAdmit(const Request& req,
                    AdmissionController::Decision dec)
{
    if (!wal_)
        return;
    const double sim_before = cfg_.durability.store->stats().sim_us;
    JournalAdmit a;
    a.id = req.id;
    a.cls = req.cls;
    a.decision = dec;
    a.input_index = static_cast<std::uint64_t>(req.input_index);
    a.arrival_us = req.arrival_us;
    a.deadline_us = req.deadline_us;
    if (auto st = wal_->append(kJournalAdmitType, encodeAdmit(a));
        !st.ok())
        common::warn("Fleet: admit journal append failed: ",
                     st.toString());
    count("durable.wal_records");
    now_ += cfg_.durability.store->stats().sim_us - sim_before;
    // A durably admitted High request can never be silently lost:
    // its admit record is synced before the arrival event returns.
    const bool force = cfg_.durability.sync_high_admits &&
                       dec == AdmissionController::Decision::Admit &&
                       req.cls == RequestClass::High;
    syncWalIfDue(force);
}

void
Fleet::journalOutcome(const Queued& q, Outcome outcome,
                      float response, double latency)
{
    if (!wal_)
        return;
    const double sim_before = cfg_.durability.store->stats().sim_us;
    JournalOutcome o;
    o.id = q.req.id;
    o.outcome = outcome;
    o.cls = q.req.cls;
    if (outcome == Outcome::Completed) {
        std::memcpy(&o.response_bits, &response, 4);
        o.latency_us = latency;
    }
    if (auto st = wal_->append(kJournalOutcomeType, encodeOutcome(o));
        !st.ok())
        common::warn("Fleet: outcome journal append failed: ",
                     st.toString());
    count("durable.wal_records");
    now_ += cfg_.durability.store->stats().sim_us - sim_before;
    syncWalIfDue(false);
}

void
Fleet::syncWalIfDue(bool force)
{
    if (!wal_ || wal_->pendingRecords() == 0)
        return;
    const std::size_t batch =
        std::max<std::size_t>(1, cfg_.durability.wal_sync_batch);
    if (!force && wal_->pendingRecords() < batch)
        return;
    const double sim_before = cfg_.durability.store->stats().sim_us;
    const std::size_t n = wal_->pendingRecords();
    if (auto st = wal_->sync(); !st.ok())
        common::warn("Fleet: WAL sync failed: ", st.toString());
    now_ += cfg_.durability.store->stats().sim_us - sim_before;
    count("durable.wal_syncs");
    durableInstant("wal_sync", static_cast<double>(n),
                   force ? 1.0 : 0.0);
}

void
Fleet::maybeCheckpoint()
{
    const DurabilityConfig& d = cfg_.durability;
    if (!ckpt_store_ || d.checkpoint_every_completions == 0)
        return;
    if (counters_.completed == last_ckpt_completed_ ||
        counters_.completed % d.checkpoint_every_completions != 0)
        return;
    installCheckpoint();
}

FleetDurableState
Fleet::captureDurableState() const
{
    FleetDurableState st;
    st.now_us = now_;
    st.counters = counters_;
    // Pre-reconcile `routed`: in-flight dispatches die with the
    // process and are re-dispatched after recovery, so the captured
    // dispatch ledger keeps only settled dispatches. WAL replay of a
    // completion then increments routed and completed together, and
    // the dispatch identity holds across the crash by construction.
    st.counters.routed =
        counters_.completed + counters_.failed_over +
        counters_.hedge_cancelled + counters_.fenced +
        counters_.lost;
    st.completed.reserve(responses_.size());
    for (std::size_t i = 0; i < responses_.size(); ++i) {
        FleetDurableState::CompletedEntry e;
        e.id = responses_[i].first;
        std::memcpy(&e.response_bits, &responses_[i].second, 4);
        e.latency_us = latencies_[i];
        st.completed.push_back(e);
    }
    // Admitted but unfinalized: the queue, then in-flight dispatches.
    // Hedge twins collapse to one entry; a twin whose request is
    // already finalized contributes nothing.
    std::set<std::uint64_t> seen;
    for (const Queued& q : queue_.snapshot())
        if (finalized_pending_.find(q.req.id) ==
                finalized_pending_.end() &&
            seen.insert(q.req.id).second)
            st.pending.push_back(q.req);
    for (const Slot& sl : slots_)
        if (sl.inflight && !sl.inflight->fenced &&
            finalized_pending_.find(sl.inflight->q.req.id) ==
                finalized_pending_.end() &&
            seen.insert(sl.inflight->q.req.id).second)
            st.pending.push_back(sl.inflight->q.req);
    st.params_blob = ckpt_blob_;
    return st;
}

void
Fleet::installCheckpoint()
{
    DurabilityConfig& d = cfg_.durability;
    const double sim_before = d.store->stats().sim_us;
    FleetDurableState st = captureDurableState();
    st.wal_first_seq = wal_ ? wal_->nextSeq() : 1;
    auto res = ckpt_store_->install(
        generation_ + 1, serializeFleetState(st),
        wal_ ? wal_->file() : std::string());
    now_ += d.store->stats().sim_us - sim_before;
    if (!res.ok()) {
        common::warn("Fleet: checkpoint install failed: ",
                     res.takeStatus().toString());
        return;
    }
    generation_ = res.value().generation;
    wal_ = std::make_unique<durable::WalWriter>(
        *d.store, res.value().wal_file, st.wal_first_seq);
    last_ckpt_completed_ = counters_.completed;
    count("durable.checkpoints");
    durableInstant("checkpoint_install",
                   static_cast<double>(generation_),
                   static_cast<double>(st.pending.size()));
}

void
Fleet::recoverFromStore()
{
    DurabilityConfig& d = cfg_.durability;
    const double sim_before = d.store->stats().sim_us;
    const double now_before = now_;

    auto loaded = ckpt_store_->loadLatest();
    if (!loaded.ok())
        common::panic("Fleet: recovery failed loading checkpoint: ",
                      loaded.takeStatus().toString());
    auto parsed = parseFleetState(loaded.value().payload);
    if (!parsed.ok())
        common::panic("Fleet: recovery failed parsing state: ",
                      parsed.takeStatus().toString());
    FleetDurableState st = std::move(parsed).value();
    // The replicas this fleet was constructed over must carry the
    // same parameters the crashed fleet checkpointed: responses are
    // pure functions of (input, parameters), and this is what makes
    // post-recovery completions bitwise comparable.
    if (st.params_blob != ckpt_blob_)
        common::panic(
            "Fleet: recovered parameter blob differs from the "
            "rebuilt replicas' (reconstruct replicas with the "
            "crashed fleet's seeds before recovering)");

    generation_ = loaded.value().manifest.generation;
    counters_ = st.counters;
    responses_.clear();
    latencies_.clear();
    for (const auto& e : st.completed) {
        float v = 0.0f;
        std::memcpy(&v, &e.response_bits, 4);
        responses_.emplace_back(e.id, v);
        latencies_.push_back(e.latency_us);
    }
    now_ = std::max(now_, st.now_us);

    // Replay the WAL's clean prefix on top of the checkpoint.
    auto wal_bytes = d.store->read(loaded.value().manifest.wal_file);
    if (!wal_bytes.ok())
        common::panic("Fleet: recovery failed reading WAL: ",
                      wal_bytes.takeStatus().toString());
    const durable::WalReadResult rr = durable::readWal(
        wal_bytes.value(), st.wal_first_seq);

    std::map<std::uint64_t, Request> in_doubt;
    for (const Request& r : st.pending)
        in_doubt[r.id] = r;
    for (const durable::WalRecord& rec : rr.records) {
        if (rec.type == kJournalAdmitType) {
            auto ar = decodeAdmit(rec.payload);
            if (!ar.ok()) {
                common::warn("Fleet: stopping replay: ",
                             ar.takeStatus().toString());
                break;
            }
            const JournalAdmit& a = ar.value();
            counters_.bookDecision(a.decision, a.cls);
            if (a.decision == AdmissionController::Decision::Admit) {
                Request req;
                req.id = a.id;
                req.cls = a.cls;
                req.input_index =
                    static_cast<std::size_t>(a.input_index);
                req.arrival_us = a.arrival_us;
                req.deadline_us = a.deadline_us;
                in_doubt[a.id] = req;
            }
        } else if (rec.type == kJournalOutcomeType) {
            auto orr = decodeOutcome(rec.payload);
            if (!orr.ok()) {
                common::warn("Fleet: stopping replay: ",
                             orr.takeStatus().toString());
                break;
            }
            const JournalOutcome& o = orr.value();
            in_doubt.erase(o.id);
            counters_.bookOutcome(o.outcome, o.cls);
            if (o.outcome == Outcome::Completed) {
                ++counters_.routed; // the winning dispatch
                float v = 0.0f;
                std::memcpy(&v, &o.response_bits, 4);
                responses_.emplace_back(o.id, v);
                latencies_.push_back(o.latency_us);
            }
        } else {
            common::warn("Fleet: unknown journal record type ",
                         rec.type, "; stopping replay");
            break;
        }
    }

    // Every admitted-but-unfinalized request re-enters the queue in
    // id order and will be re-dispatched; their original dispatches
    // (if any) died with the process and were never counted.
    for (const auto& [id, req] : in_doubt)
        queue_.enqueue(Queued{req, 0, now_});

    // Modeled recovery cost: store reads (charged via sim_us),
    // replay CPU, and the re-specialization of every live replica
    // (they re-JIT in parallel, so the max gates readiness).
    double re_jit_us = 0.0;
    for (Slot& sl : slots_)
        if (sl.state == ReplicaState::Active)
            re_jit_us = std::max(
                re_jit_us, handleOf(sl)->jitSeconds() * 1e6);
    const double replay_us =
        kReplayUsPerRecord * static_cast<double>(rr.records.size());
    now_ += d.store->stats().sim_us - sim_before + replay_us +
            re_jit_us;

    RecoveryInfo info;
    info.generation = generation_;
    info.replayed_records = rr.records.size();
    info.in_doubt = in_doubt.size();
    info.wal_bytes = rr.clean_bytes;
    info.wal_torn = rr.torn;
    info.re_jit_us = re_jit_us;

    // The recovery checkpoint: everything just reconstructed becomes
    // generation N+1 with a fresh WAL segment, so the old segment's
    // (possibly torn) tail is never appended to -- it is simply
    // garbage-collected by the install.
    wal_ = std::make_unique<durable::WalWriter>(
        *d.store, loaded.value().manifest.wal_file,
        st.wal_first_seq + rr.records.size());
    installCheckpoint();

    info.recovery_us = now_ - now_before;
    recovery_ = info;
    count("durable.recoveries");
    count("durable.replayed_records", info.replayed_records);
    count("durable.in_doubt", info.in_doubt);
    durableInstant("recovery_replay",
                   static_cast<double>(info.replayed_records),
                   static_cast<double>(info.in_doubt));
    common::inform("Fleet: recovered generation ", info.generation,
                   ": replayed ", info.replayed_records,
                   " records, re-enqueued ", info.in_doubt,
                   " in-doubt requests",
                   rr.torn ? " (WAL tail was torn)" : "");
}

void
Fleet::hostCrash()
{
    crashed_ = true;
    count("durable.host_crashes");
    durableInstant("host_crash", static_cast<double>(events_));
    common::warn("Fleet: host crashed at event boundary ", events_);
    // The store takes the crash too: its unsynced bytes (the WAL
    // tail past the last sync) are torn or dropped per its plan.
    if (cfg_.durability.store != nullptr)
        cfg_.durability.store->crash();
}

FleetReport
Fleet::report() const
{
    FleetReport rep;
    rep.counters = counters_;
    rep.latency = latencyStats(latencies_);
    rep.replicas.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& sl = slots_[i];
        rep.replicas.push_back(ReplicaReport{
            sl.r.name, sl.state, sl.dispatches, sl.failures,
            sl.breaker.trips(),
            health_.detector(i).phi(now_)});
    }
    rep.sim_end_us = now_;
    return rep;
}

} // namespace serve

/**
 * @file
 * The fleet's network model (DESIGN.md section 4.12).
 *
 * serve::Fleet historically treated replicas as connectivity-free:
 * probes, dispatches, completions, and standby promotion crossed zero
 * distance for zero cost and could not fail. This module routes all
 * of that traffic over a gpusim::Topology at modeled link cost, and
 * exposes the link fault domain (gpusim::LinkFault: clock-keyed down
 * windows, degraded-bandwidth windows, seeded per-link message loss)
 * to the serving layer:
 *
 *  - control messages (probe, dispatch, completion) pay the path's
 *    alpha-beta time, are silently dropped by seeded loss, and cannot
 *    be sent while any hop is inside a down window;
 *  - completion-style messages retransmit under an exponential
 *    backoff ladder until the path heals (delivery time is computed
 *    in closed form at send time -- the simulator is omniscient about
 *    clock-keyed windows, so this stays deterministic);
 *  - bulk parameter shipping is chunked: each chunk retries with
 *    backoff and the transfer resumes from its byte offset, never
 *    from zero, after a loss or a down window;
 *  - the post-training parameter broadcast that seeds every replica
 *    is priced with the pipelined tree-broadcast schedule
 *    (gpusim::broadcastCost).
 *
 * Everything here runs inside the fleet's serial event loop and draws
 * only from the plan's dedicated link stream, so a networked run is
 * bitwise deterministic at any host thread count, and layering a link
 * fault schedule onto a plan perturbs no other fault domain.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/faults.hpp"
#include "gpusim/topology.hpp"

namespace obs {
class Tracer;
class MetricsRegistry;
} // namespace obs

namespace serve {

/** Fleet networking knobs. An empty topology disables the model
 *  entirely (the fleet then behaves exactly as before). */
struct NetConfig
{
    /** Node graph; replicas and the controller live on its devices.
     *  Empty (zero devices) turns networking off. */
    gpusim::Topology topology;

    /** Device the fleet's router/event loop runs on. */
    std::size_t controller_node = 0;

    /** Fault plan; only the link domain (link_faults, link_seed) is
     *  consulted here. */
    gpusim::FaultPlan faults;

    /** Chunk size for bulk parameter/checkpoint shipping. */
    std::uint64_t ship_chunk_bytes = 64 * 1024;

    /** Consecutive per-chunk retries before a ship fails. */
    int max_chunk_retries = 8;

    /** Retransmit attempts before a reliable delivery gives up (the
     *  path then counts as unreachable until it heals). */
    int max_retransmits = 64;

    // The in-flight dispatch timeout that fences a silent dispatch
    // is the fleet's (kInflightTimeoutServices, serve/fleet.cpp).
};

/**
 * Network accounting. Every field mirrors into the metrics registry
 * under "net.<field>" one-for-one (metrics_test reconciles them), so
 * the identity-style bookkeeping the fleet counters rely on extends
 * to the wire.
 */
struct NetStats
{
    std::uint64_t messages = 0;        //!< control sends attempted
    std::uint64_t messages_lost = 0;   //!< seeded in-flight losses
    std::uint64_t sends_blocked = 0;   //!< refused: path down at send
    std::uint64_t retransmits = 0;     //!< backoff-ladder re-sends
    std::uint64_t probe_replies = 0;   //!< heartbeats returned intact
    std::uint64_t unreachable_skips = 0; //!< router skipped a cut-off replica
    std::uint64_t timeouts = 0;        //!< in-flight dispatch timeouts
    std::uint64_t fences = 0;          //!< dispatch epochs fenced
    std::uint64_t fence_drops = 0;     //!< stale completions discarded
    std::uint64_t ship_chunks = 0;     //!< bulk chunks delivered
    std::uint64_t ship_retries = 0;    //!< bulk chunk retries
    std::uint64_t ship_bytes = 0;      //!< bulk bytes delivered
    std::uint64_t ship_us_total = 0;   //!< completed-ship time, whole us
    std::uint64_t ships_failed = 0;    //!< transfers abandoned
    std::uint64_t param_broadcasts = 0;//!< initial broadcasts priced
    std::uint64_t bytes_on_wire = 0;   //!< all bytes actually delivered
};

/**
 * Deterministic link-level transport between fleet nodes. Owned by
 * the Fleet and driven only from its serial event loop. Fencing and
 * timeout *decisions* live in the fleet; this class supplies the
 * transport outcomes and carries the shared stats (the fleet calls
 * noteTimeout()/noteFence()/... so one struct reconciles the lane).
 */
class NetworkModel
{
  public:
    /** Disabled model: enabled() == false, every query panics-free
     *  no-ops (the fleet never calls them when disabled). */
    NetworkModel() = default;

    NetworkModel(NetConfig cfg, obs::Tracer* tracer,
                 obs::MetricsRegistry* metrics);

    bool enabled() const { return cfg_.topology.numDevices() > 0; }

    const NetConfig& config() const { return cfg_; }

    const NetStats& stats() const { return stats_; }

    /** Link-domain fault log (down/degrade windows observed, messages
     *  lost), from the model's own injector. */
    const gpusim::FaultLog& faultLog() const;

    /** Is every hop of the a<->b path outside a down window at
     *  @p now_us? False for unreachable pairs (no link, no route). */
    bool pathUp(std::size_t a, std::size_t b, double now_us);

    /** Earliest instant >= @p now_us at which the whole path is up;
     *  +inf for a permanent cut or an unreachable pair. */
    double pathUpAtUs(std::size_t a, std::size_t b, double now_us);

    /** Modeled transfer time (us) for @p bytes over the path at
     *  @p now_us, with any degrade windows dividing hop bandwidth.
     *  The pair must be reachable. */
    double transferUs(std::size_t a, std::size_t b,
                      std::uint64_t bytes, double now_us);

    /** Static fault-free transfer cost (us) for standby scoring:
     *  0 for a == b, +inf when unreachable. Ignores fault windows so
     *  the candidate order is a pure topology property. */
    double scoreUs(std::size_t a, std::size_t b,
                   std::uint64_t bytes) const;

    /** Outcome of one unacknowledged control-message send. */
    struct SendOutcome
    {
        bool delivered = false;
        bool blocked = false; //!< path was down; nothing sent
        double delay_us = 0.0;
    };

    /** Send one control message at @p now_us: blocked if the path is
     *  down, silently lost on a seeded loss draw, else delivered
     *  after the modeled transfer time. */
    SendOutcome send(std::size_t a, std::size_t b,
                     std::uint64_t bytes, double now_us,
                     const char* what);

    /**
     * Delivery instant of a message whose sender retransmits under
     * the backoff ladder until it gets through (the fleet's
     * completion path): waits out down windows, re-draws loss per
     * attempt, and returns +inf once max_retransmits attempts are
     * spent or the path never heals.
     */
    double reliableDeliveryAtUs(std::size_t a, std::size_t b,
                                std::uint64_t bytes, double send_us);

    /** Outcome of one chunked bulk transfer. */
    struct ShipOutcome
    {
        bool ok = false;
        double done_at_us = 0.0;
        std::uint64_t chunks = 0;
        std::uint64_t retries = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * Ship @p bytes from @p a to @p b starting at @p now_us, in
     * ship_chunk_bytes chunks. Each chunk retries under the backoff
     * ladder; delivered chunks stay delivered, so the transfer
     * resumes from its byte offset after a loss or a down window. A
     * chunk that exhausts max_chunk_retries (or faces a permanent
     * cut) abandons the ship (ok = false).
     */
    ShipOutcome ship(std::size_t a, std::size_t b,
                     std::uint64_t bytes, double now_us);

    /** Price the initial parameter broadcast (controller to every
     *  node) with the pipelined tree closed form over 8 chunks; a
     *  tree hop with no link or route goes through the controller
     *  (Topology::withHubRoutes). @return its duration in us (0 for
     *  a single-node topology). */
    common::Result<double> paramBroadcastUs(std::uint64_t bytes,
                                            double now_us);

    /** @name Fleet-side bookkeeping hooks (keep NetStats the single
     *  reconciliation source for the net lane) @{ */
    void noteProbeReply(std::size_t replica, double rtt_us,
                        double now_us);
    void noteTimeout(std::uint64_t req_id, double now_us);
    void noteFence(std::uint64_t req_id, int epoch, double now_us);
    void noteFenceDrop(std::uint64_t req_id, int epoch,
                       double now_us);
    void noteUnreachableSkip();
    /** @} */

  private:
    void count(const char* name, std::uint64_t n = 1);
    void netInstant(const char* name, double ts_us,
                    std::int64_t ctx = 0, double a0 = 0.0,
                    double a1 = 0.0);

    /** Full device path [a, hops..., b]; empty when unreachable. */
    std::vector<std::size_t> pathOf(std::size_t a,
                                    std::size_t b) const;

    /** One loss draw per hop of @p path (stable draw order). */
    bool drawPathLoss(const std::vector<std::size_t>& path);

    NetConfig cfg_;
    std::optional<gpusim::FaultInjector> inj_;
    obs::Tracer* tracer_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    NetStats stats_;
};

} // namespace serve

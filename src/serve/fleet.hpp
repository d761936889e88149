/**
 * @file
 * Replicated failover serving over a fleet of simulated GPUs.
 *
 * serve::Server made one device overload-tolerant; a wedged device
 * is still fatal to it. The Fleet runs N replica handles over
 * *independent* Device instances behind a router, so the whole-device
 * fault domains (permanent wedge, transient stall, hot SM disable)
 * become survivable events:
 *
 *  - seeded health probes feed a phi-accrual suspicion level per
 *    replica (serve/health.hpp); suspected replicas stop receiving
 *    traffic before a request has to die to prove the device did;
 *  - requests route individually (no cross-request batching), so a
 *    completed response is a pure function of (input, parameters)
 *    and bitwise comparable across replicas, runs, and thread counts;
 *  - a failed dispatch fails over: the request re-enqueues at the
 *    front and routes to a different replica, within its class's
 *    failover budget and deadline;
 *  - optionally, High-class requests still in flight after
 *    hedge_delay_us get a hedged duplicate on a second replica; the
 *    first completion wins and the loser is cancelled;
 *  - each replica has its own PR-3 CircuitBreaker: repeated failures
 *    quarantine the replica (router skips it) until a cooldown probe
 *    succeeds;
 *  - a confirmed device loss promotes a warm standby: parameters are
 *    restored from the fleet's serialized checkpoint blob (the PR-2
 *    checkpoint path) and the handle is re-JITted, so post-failover
 *    inference is bitwise identical to the lost replica's.
 *
 * With a non-empty FleetConfig::net topology, the fleet is
 * additionally *networked* (DESIGN.md section 4.12): every probe,
 * dispatch, completion, and standby parameter ship crosses
 * gpusim::Topology links at modeled cost and is subject to the link
 * fault domain (down windows, degraded bandwidth, seeded loss). A
 * dispatch whose completion goes silent is fenced by epoch after a
 * timeout -- the request re-routes, and the stale completion (if the
 * partition heals) is discarded on arrival, so a healed partition can
 * never double-complete a request.
 *
 * Dispatch accounting reconciles by construction: every routed
 * dispatch ends in exactly one of {completed, failed_over,
 * hedge_cancelled, fenced, lost}, alongside the request-level
 * identities inherited from the Server. Admission's backlog estimate
 * and a dispatch's simulated duration follow the Server's rules
 * (serve/service_time.hpp) at max_batch 1. The headline invariant
 * (fleet_failover + partition_tolerance tests): with R >= 2 replicas
 * and any single-device loss or single-link partition mid-load, no
 * admitted High-class request is lost, and all completed responses
 * are bitwise identical to the no-fault run, at 1 and 8 host
 * threads.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "durable/stable_store.hpp"
#include "gpusim/faults.hpp"
#include "models/benchmark_model.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/health.hpp"
#include "serve/net.hpp"
#include "serve/request.hpp"
#include "vpps/handle.hpp"

namespace obs {
class Tracer;
class MetricsRegistry;
} // namespace obs

namespace durable {
class CheckpointStore;
class WalWriter;
} // namespace durable

namespace serve {

struct FleetDurableState; // serve/durability.hpp

/**
 * Crash-consistency knobs for the fleet (DESIGN.md section 4.10).
 * With a null store, durability is off and the fleet behaves exactly
 * as before. With a store, the fleet journals every admission
 * decision and final disposition to a write-ahead log, installs
 * atomic generation checkpoints, and -- when the directory already
 * holds an installed generation at construction -- recovers: restores
 * counters and the completed-response log, replays the WAL, re-JITs
 * at modeled cost, and re-enqueues every admitted-but-unfinalized
 * request.
 */
struct DurabilityConfig
{
    /** Borrowed stable store; null disables durability. The fleet
     *  keeps its state under the "fleet" name prefix. */
    durable::StableStore* store = nullptr;

    /** Group-commit threshold: sync the WAL once this many records
     *  are buffered. 1 = sync every record. */
    std::size_t wal_sync_batch = 1;

    /** Force a WAL sync on every admitted High-class arrival, making
     *  "no admitted High request lost" hold by construction (the
     *  admission is durable before the arrival event returns). */
    bool sync_high_admits = true;

    /** Install a checkpoint generation every N completions
     *  (0 = only the initial and recovery checkpoints). */
    std::uint64_t checkpoint_every_completions = 0;

    /** Host fault domain (host_crash_at_event). */
    gpusim::FaultPlan host_faults;
};

/** What a recovery did, for reports and the crash-point explorer. */
struct RecoveryInfo
{
    std::uint64_t generation = 0;       //!< generation recovered from
    std::uint64_t replayed_records = 0; //!< WAL records replayed
    std::uint64_t in_doubt = 0;         //!< requests re-enqueued
    std::uint64_t wal_bytes = 0;        //!< clean WAL prefix bytes
    bool wal_torn = false;              //!< crash tore the WAL tail
    double recovery_us = 0.0; //!< modeled clock advance (total)
    double re_jit_us = 0.0;   //!< re-specialization share of it
};

/**
 * One replica slot, caller-supplied and borrowed. Active replicas
 * come with a live handle (build it with async = false and
 * degrade_on_failure = false, like the Server's handle); a null
 * handle marks a warm-standby slot -- a device and model held in
 * reserve whose handle the fleet builds (checkpoint restore +
 * re-JIT) when promoting it after a device loss.
 */
struct FleetReplica
{
    std::string name;
    gpusim::Device* device = nullptr;
    models::BenchmarkModel* bm = nullptr;
    vpps::Handle* handle = nullptr; //!< null => warm standby

    /** Topology node this replica lives on (networked fleets only);
     *  npos defaults to the replica's slot index. */
    std::size_t node = static_cast<std::size_t>(-1);
};

struct FleetConfig
{
    AdmissionConfig admission;
    BreakerConfig breaker;
    HealthConfig health;

    /** Failover budget: re-dispatches after a failed dispatch. */
    int max_failovers_high = 2;
    int max_failovers_low = 0;

    /** Hedge delay for High-class requests (duplicate dispatch on a
     *  second replica once the primary has been in flight this
     *  long); negative disables hedging. One hedge per request. */
    double hedge_delay_us = -1.0;

    /** Handle options for standby rebuilds (use the same options the
     *  active replicas' handles were built with). */
    vpps::VppsOptions standby_opts;

    /** Crash-consistency (off unless durability.store is set). */
    DurabilityConfig durability;

    /** Fleet networking (off unless net.topology has devices). */
    NetConfig net;
};

/**
 * Fleet accounting. The request ledger and its identities are the
 * Server's (serve/request.hpp), plus the High-class slice; the
 * dispatch-level identity is the fleet's own:
 *
 *   arrivals = admitted + rejected_queue_full + rejected_infeasible
 *            + shed
 *   admitted = completed + timed_out + failed
 *   routed   = completed + failed_over + hedge_cancelled + fenced
 *            + lost
 *
 * (each completed request has exactly one winning dispatch, so
 * `completed` serves both identities). Every field mirrors into the
 * metrics registry under "fleet.<field>" one-for-one.
 */
struct FleetCounters : RequestLedger, HighSlice
{
    /** @name Dispatch dispositions @{ */
    std::uint64_t routed = 0;
    std::uint64_t failed_over = 0;
    std::uint64_t hedge_cancelled = 0;
    std::uint64_t fenced = 0; //!< in-flight epoch fenced on timeout
    std::uint64_t lost = 0;
    /** @} */

    /** @name Diagnostics (not part of the identities) @{ */
    std::uint64_t hedges = 0;       //!< hedge dispatches issued
    std::uint64_t probes = 0;       //!< health probes executed
    std::uint64_t suspicions = 0;   //!< phi rising edges past threshold
    std::uint64_t device_losses = 0;//!< replicas confirmed wedged
    std::uint64_t standby_joins = 0;//!< standbys promoted into rotation
    std::uint64_t expired_in_queue = 0; //!< subset of timed_out
    std::uint64_t drained_no_replica = 0; //!< finalized with fleet dead
    /** @} */

    /** Book one arrival under admission decision @p dec, High slice
     *  included. The live path and WAL replay both book through
     *  here, so a replayed journal rebuilds exactly the counts the
     *  live run kept. @return the disposition's row. */
    const Disposition&
    bookDecision(AdmissionDecision dec, RequestClass cls)
    {
        return slice(book(dec), cls);
    }

    /** Book one admitted request's final disposition, High slice
     *  included: Completed, TimedOut, and anything else as failed.
     *  The live path and WAL replay both book through here. */
    const Disposition&
    bookOutcome(Outcome outcome, RequestClass cls)
    {
        return slice(book(outcome), cls);
    }

    /** Dispatches that reached a terminal disposition: `routed`
     *  once no dispatch is in flight. */
    std::uint64_t
    settledDispatches() const
    {
        return completed + failed_over + hedge_cancelled + fenced +
               lost;
    }

    /** All three identities at once (no silent drops, no dispatch
     *  leaks). */
    bool
    reconciled() const
    {
        return RequestLedger::reconciled() &&
               routed == settledDispatches() &&
               admitted_high ==
                   completed_high + timed_out_high + failed_high;
    }

  private:
    const Disposition&
    slice(const Disposition& d, RequestClass cls)
    {
        if (d.high != nullptr && cls == RequestClass::High)
            ++(this->*d.high);
        return d;
    }
};

/** Replica lifecycle, reported and traced. */
enum class ReplicaState : std::uint8_t
{
    Active,  //!< in rotation
    Standby, //!< warm reserve, no handle yet
    Joining, //!< promoted, rebuilding (restore + re-JIT)
    Dead,    //!< confirmed device loss (or failed promotion)
};

struct ReplicaReport
{
    std::string name;
    ReplicaState state = ReplicaState::Active;
    std::uint64_t dispatches = 0;
    std::uint64_t failures = 0;
    std::uint64_t breaker_trips = 0;
    double phi = 0.0; //!< suspicion at end of run
};

struct FleetReport
{
    FleetCounters counters;
    LatencyStats latency;
    std::vector<ReplicaReport> replicas;
    double sim_end_us = 0.0;
};

class Fleet
{
public:
    /**
     * Borrow @p replicas (at least one active). @p tracer /
     * @p metrics are optional observability sinks for the fleet's
     * own lanes and "fleet.*" counters; install them on the replica
     * devices too if per-device detail is wanted. A serialized
     * checkpoint of the first active replica's parameters is
     * captured here as the standby replication source.
     */
    Fleet(std::vector<FleetReplica> replicas, FleetConfig cfg = {},
          obs::Tracer* tracer = nullptr,
          obs::MetricsRegistry* metrics = nullptr);

    ~Fleet();

    /**
     * Serve @p arrivals (sorted by arrival_us) of the fleet's one
     * model to completion. May be called repeatedly; clock, health,
     * and breaker state carry over. With a host fault domain
     * configured, the loop halts at the planned event boundary
     * instead (crashed() turns true and the stable store takes its
     * crash); further run() calls are no-ops -- recovery means
     * constructing a new Fleet over the restarted store and feeding
     * it the original arrival stream from the *recovered* fleet's
     * arrivalsConsumed() (the crashed instance's in-memory count may
     * exceed what the WAL made durable; un-acknowledged arrivals
     * must be re-delivered).
     */
    void run(const std::vector<Request>& arrivals);

    FleetReport report() const;

    const FleetCounters& counters() const { return counters_; }

    /** (request id, response value) for every completed request, in
     *  completion order. The bitwise-determinism probe: identical
     *  across host thread counts, and identical per id between a
     *  faulty run and its fault-free twin. */
    const std::vector<std::pair<std::uint64_t, float>>&
    responses() const
    {
        return responses_;
    }

    /** Completed-request latencies in completion order. */
    const std::vector<double>& latencies() const
    {
        return latencies_;
    }

    double nowUs() const { return now_; }

    std::size_t liveReplicas() const;

    ReplicaState replicaState(std::size_t r) const
    {
        return slots_[r].state;
    }

    /** @name Durability surface (see DurabilityConfig) @{ */

    /** True once the host fault domain fired; the loop is halted. */
    bool crashed() const { return crashed_; }

    /** Events processed so far (the host-crash boundary counter;
     *  deterministic for a given arrival stream and config). */
    std::uint64_t eventsProcessed() const { return events_; }

    /** Arrivals consumed (acknowledged): on a recovered fleet this
     *  reflects only durably journaled admits and is the index the
     *  arrival source should resume re-delivery from. Every arrival
     *  journals an admit record (rejects included), so this equals
     *  the arrivals counter. On a crashed instance it is the
     *  in-memory count, which may run ahead of the WAL. */
    std::uint64_t arrivalsConsumed() const
    {
        return counters_.arrivals;
    }

    /** Set iff this fleet recovered from an installed generation. */
    const std::optional<RecoveryInfo>& recovery() const
    {
        return recovery_;
    }

    /** Installed checkpoint generation (0 when durability is off). */
    std::uint64_t generation() const { return generation_; }
    /** @} */

    /** @name Networking surface (see NetConfig) @{ */

    /** The fleet's network model (enabled() false when off). */
    const NetworkModel& net() const { return net_; }

    /** Wire accounting (all zero when networking is off). */
    const NetStats& netStats() const { return net_.stats(); }
    /** @} */

private:
    struct InFlight
    {
        Queued q;
        bool is_hedge = false;
        bool hedged = false;     //!< a hedge copy was launched
        bool ok = false;
        common::ErrorCode err = common::ErrorCode::Ok;
        float response = 0.0f;
        double done_at_us = 0.0; //!< +inf: completion never arrives
        double hedge_at_us = -1.0; //!< < 0: no hedge scheduled

        /** @name Networked dispatch state @{ */
        int epoch = 0;         //!< fence epoch this dispatch carries
        bool fenced = false;   //!< timed out; completion is stale
        double timeout_at_us = -1.0; //!< < 0: no timeout armed
        /** @} */
    };

    struct Slot
    {
        FleetReplica r;
        std::unique_ptr<vpps::Handle> owned; //!< standby rebuilds
        CircuitBreaker breaker;
        ReplicaState state = ReplicaState::Active;
        std::optional<InFlight> inflight;
        double join_at_us = 0.0;
        std::uint64_t dispatches = 0;
        std::uint64_t failures = 0;
        std::size_t node = 0; //!< resolved topology node
    };

    void count(const char* name, std::uint64_t n = 1);
    void fleetInstant(const char* name, std::uint64_t req_id,
                      double a0 = 0.0, double a1 = 0.0);

    /** Mirror request @p req's booked disposition @p d: registry
     *  counter (and its High slice) and fleet-lane instant. */
    void noteDisposition(const Disposition& d, const Request& req,
                         double a0 = 0.0, double a1 = 0.0);

    /** Trace slot @p s's breaker transition away from @p before. */
    void noteBreaker(std::size_t s, CircuitBreaker::State before);

    /** The slot's serving handle (fleet-owned for promoted
     *  standbys, borrowed otherwise). */
    vpps::Handle* handleOf(Slot& sl);

    /** Per-request service estimate from the first live replica
     *  (cached value when none is live). Non-const: refreshes the
     *  cache. */
    double serviceUs();
    double earliestFreeUs() const;

    void onArrival(const Request& req);

    /** Route-eligible test + breaker gate (mutates the breaker on
     *  Open->HalfOpen). @return chosen slot or npos. */
    std::size_t chooseReplica(std::size_t exclude);

    /** Execute one request on slot @p s (the simulated work happens
     *  here; the completion event fires at done_at_us). */
    void execute(std::size_t s, Queued q, bool as_hedge);

    /** @name The dispatch ladder
     *  A dispatch settles when its completion lands (completeOn) or
     *  its fence timeout fires (onInflightTimeout); both resolve it
     *  through these steps. @{ */
    void completeOn(std::size_t s);

    /** Fence a dispatch whose completion went silent past its
     *  timeout: bumps the request's fence epoch (the stale completion
     *  is discarded on arrival) and re-routes or finalizes the
     *  request. */
    void onInflightTimeout(std::size_t s);

    /** If request @p id already finalized through its twin, retire
     *  slot @p s's dispatch as the cancelled hedge loser.
     *  @return whether it did. */
    bool retireHedgeLoser(std::size_t s, std::uint64_t id);

    /** Book slot @p s's dispatch of request @p id as lost. */
    void bookLost(std::size_t s, std::uint64_t id);

    /** Re-enqueue @p q at the front, tracing @p instant, if its class
     *  has failover budget left, its deadline is ahead, and a replica
     *  other than @p s (or @p s itself, when @p self_routable) is
     *  live or joining. @return whether it re-routed. */
    bool reroute(std::size_t s, const Queued& q, bool self_routable,
                 const char* instant);

    /** TimedOut if @p q is past its deadline, else Failed: how a
     *  request no replica will serve is finalized. */
    Outcome unservedOutcome(const Queued& q) const;
    /** @} */

    /** Book a request's final disposition (Completed, TimedOut or
     *  Failed): counters, registry mirror, trace and journal.
     *  @p response / @p latency only meaningful for Completed. */
    void finalizeRequest(const Queued& q, Outcome outcome,
                         float response = 0.0f,
                         double latency = 0.0);
    void onDeviceLost(std::size_t s);

    /** Promote the best standby: same rack as the lost replica
     *  first, then cheapest parameter ship from the controller, then
     *  lowest slot index (plain first-standby order when networking
     *  is off). */
    void promoteStandby(std::size_t lost = static_cast<std::size_t>(-1));
    void joinReplica(std::size_t s);
    void processProbe(std::size_t r);

    /** Timeout armed on a networked dispatch at send time. */
    double effectiveTimeoutUs();
    void expireQueued();
    void drainUnroutable();

    /** Twin dispatch of request @p id in flight on a slot other than
     *  @p self, or npos. */
    std::size_t twinOf(std::uint64_t id, std::size_t self) const;

    /** @name Durability internals (all no-ops with a null store) @{ */
    void initDurability();
    void durableInstant(const char* name, double a0 = 0.0,
                        double a1 = 0.0);

    /** Run @p io against the stable store and add the store time it
     *  charged to @p clock_us. @return what @p io returns. */
    template <class Io>
    auto chargeStore(double& clock_us, Io&& io);

    /** Append one journal record, charging its store time, then sync
     *  the WAL if due (@p force_sync: now). */
    void journal(std::uint32_t type,
                 const std::vector<std::uint8_t>& payload,
                 bool force_sync);
    void journalAdmit(const Request& req,
                      AdmissionController::Decision dec);
    void journalOutcome(const Queued& q, Outcome outcome,
                        float response, double latency);
    void syncWalIfDue(bool force);
    void maybeCheckpoint();
    void installCheckpoint();
    void recoverFromStore();
    void hostCrash();
    FleetDurableState captureDurableState() const;
    /** @} */

    std::vector<Slot> slots_;
    FleetConfig cfg_;
    AdmissionController admission_;
    Batcher queue_; //!< max_batch = 1: individual-request routing
    HealthMonitor health_;
    obs::Tracer* tracer_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;

    std::vector<std::uint8_t> ckpt_blob_; //!< replication source
    double nodes_per_item_ = 1.0;
    double svc_cache_ = 1'000.0; //!< last good service estimate

    FleetCounters counters_;
    std::vector<std::pair<std::uint64_t, float>> responses_;
    std::vector<double> latencies_;

    /** Requests finalized while a twin dispatch was still in flight;
     *  the twin resolves to hedge_cancelled and erases its entry. */
    std::set<std::uint64_t> finalized_pending_;

    std::vector<bool> was_suspect_; //!< per-slot phi edge detector
    std::size_t rr_next_ = 0;       //!< round-robin routing cursor
    double now_ = 0.0;

    /** @name Networking state (disabled without a net topology) @{ */
    NetworkModel net_;

    /** Per-request fence epoch: a dispatch is valid only while its
     *  epoch matches; bumped by onInflightTimeout(). */
    std::map<std::uint64_t, int> fence_epoch_;
    /** @} */

    /** @name Durability state (unset with a null store) @{ */
    std::unique_ptr<durable::CheckpointStore> ckpt_store_;
    std::unique_ptr<durable::WalWriter> wal_;
    std::optional<gpusim::FaultInjector> host_faults_;
    std::uint64_t generation_ = 0;
    std::uint64_t events_ = 0; //!< host-crash boundary counter
    std::uint64_t last_ckpt_completed_ = 0;
    bool crashed_ = false;
    std::optional<RecoveryInfo> recovery_;
    /** @} */
};

} // namespace serve

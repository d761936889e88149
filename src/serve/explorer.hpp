/**
 * @file
 * Deterministic fault-point exploration for the serving fleet.
 *
 * An explorer proves a recovery contract by construction: run a fixed
 * two-replica serving scenario once fault-free to learn its extent E
 * and its completion set, then re-run it with one fault injected at
 * point k for swept k in [0, E]. Two fault domains share the engine:
 *
 *  - host crash: the host fault domain halts the event loop at event
 *    boundary k; the (crashed) stable store restarts, a fresh fleet
 *    recovers from it, and the arrival stream finishes;
 *  - link down: a down window cuts the controller->replica link of a
 *    star topology (controller + two replicas) from microsecond k for
 *    down_for_us.
 *
 * For every explored point the invariants are:
 *
 *  1. no admitted High-class request is lost: every High admit
 *     completes despite the fault;
 *  2. completions are bitwise identical to the fault-free run (same
 *     ids, same float bits), with no id completed twice -- recovery
 *     resumes from the durable acknowledgment point, and the epoch
 *     fence makes a healed partition unable to double-complete;
 *  3. counters reconcile across the fault (the three FleetCounters
 *     identities, routed == completed + failed_over +
 *     hedge_cancelled + fenced + lost among them).
 *
 * Everything is simulated and seeded, and both fault domains are
 * RNG-free (keyed on the event counter or the clock), so a fault point
 * is a plain integer and a violation replays exactly. Exploration is a
 * stratified sweep over [0, E] (budgeted), and any violation is shrunk
 * by bisection against the nearest passing point below it to a minimal
 * failing point for the report (exploreBoundaries).
 *
 * The same scenario machinery backs the benches:
 * measureRecovery() prices a crash + recovery episode
 * (bench/crash_recovery), measurePartition() goodput under a mid-trace
 * partition, and measurePromotion() a rack-local vs a cross-rack
 * standby promotion (bench/partition_tolerance).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace serve {

/** What a sweep over one fault domain found. */
struct ExploreReport
{
    /** End of the swept domain [0, baseline_end]: the fault-free
     *  run's event count (crash) or its simulated end in whole
     *  microseconds (link). */
    std::uint64_t baseline_end = 0;

    /** Completions in the fault-free run. */
    std::uint64_t baseline_completed = 0;

    /** Fault points actually tested: the sweep, then any bisection
     *  probes. */
    std::vector<std::uint64_t> points_tested;

    /** One explored point that violated an invariant. */
    struct Failure
    {
        std::uint64_t point = 0;
        std::vector<std::string> violations;
    };

    /** Every failing sweep point, in sweep order (empty = contract
     *  holds). */
    std::vector<Failure> failures;

    /** Smallest failing point after bisection shrink (only
     *  meaningful when failures is non-empty). */
    std::uint64_t min_failing = 0;

    bool passed() const { return failures.empty(); }
};

/** Check one fault point; @return every violated invariant (empty =
 *  all hold). */
using PointCheck =
    std::function<std::vector<std::string>(std::uint64_t)>;

/**
 * Sweep @p check over [0, @p end]: @p max_points evenly spaced
 * points, endpoints included (0 = every point), capped at end + 1 and
 * deduplicated. Without failures that is the whole report. Otherwise,
 * with @p bisect, the first failure is narrowed against the nearest
 * passing sweep point below it to a failing point whose predecessor
 * passes; min_failing is that point, or the first failing sweep point
 * when bisection is off or no sweep point below it passed.
 * baseline_completed is left for the caller.
 */
ExploreReport exploreBoundaries(std::uint64_t end,
                                std::size_t max_points, bool bisect,
                                const PointCheck& check);

// ---------------------------------------------------------------
// Host-crash domain
// ---------------------------------------------------------------

/** Scenario + sweep knobs. Defaults are the tier-1 configuration. */
struct CrashExplorerConfig
{
    /** Host interpreter threads for every handle in the scenario. */
    int host_threads = 1;

    /** Arrival count. Deadlines are effectively unbounded so every
     *  arrival admits and completes in the no-crash run; this is
     *  what makes the completion-set comparison exact. */
    std::size_t n_requests = 28;

    /** Low-class fraction of the arrival mix. */
    double low_fraction = 0.25;

    /** Fleet WAL group-commit batch (1 = sync every record). */
    std::size_t wal_sync_batch = 1;

    /** Checkpoint cadence in completions (0 = initial/recovery
     *  checkpoints only). */
    std::uint64_t checkpoint_every_completions = 8;

    /** Stable-store crash severity: probability an unsynced file
     *  keeps a torn prefix instead of its full pending tail. */
    double torn_write_rate = 0.75;

    /** Stable-store short-write (partial sync) injection rate. */
    double short_write_rate = 0.05;

    /** Sweep budget: crash boundaries tested across [0, E], evenly
     *  spaced, endpoints included (0 = every boundary). */
    std::size_t max_points = 16;

    /** Shrink each violation to a minimal failing boundary. */
    bool bisect = true;
};

/**
 * Check one crash boundary: run the scenario crashing at event
 * @p crash_event, recover, finish, and return every violated
 * invariant (empty vector = all hold).
 */
std::vector<std::string>
checkCrashPoint(const CrashExplorerConfig& cfg,
                std::uint64_t crash_event);

/** Sweep crash boundaries over [0, baseline event count]. */
ExploreReport exploreCrashPoints(const CrashExplorerConfig& cfg);

/**
 * One measured crash + recovery episode (the bench/crash_recovery
 * unit): the scenario crashes at a fixed fraction of the baseline's
 * event count, recovers, and finishes the arrival stream.
 */
struct RecoveryMeasurement
{
    std::uint64_t baseline_events = 0;
    std::uint64_t crash_event = 0;

    /** Durability cost on the pre-crash leg. */
    std::uint64_t wal_syncs = 0;
    std::uint64_t checkpoints = 0;

    /** Recovery cost (simulated): total, store replay, re-JIT. */
    double recovery_us = 0.0;
    double re_jit_us = 0.0;
    std::uint64_t replayed_records = 0;

    /** Lost work: completions the crash un-finalized (they re-run
     *  after recovery) plus arrivals re-delivered because their
     *  admit record died in the WAL group buffer. */
    std::uint64_t in_doubt = 0;
    std::uint64_t redelivered_arrivals = 0;

    /** Final completion count and invariant check of the recovered
     *  run against the no-crash baseline. */
    std::uint64_t completed = 0;
    std::vector<std::string> violations;
};

/** Crash at `crash_fraction * baseline_events` and measure the
 *  recovery (crash_fraction clamped to [0, 1]). */
RecoveryMeasurement
measureRecovery(const CrashExplorerConfig& cfg,
                double crash_fraction);

// ---------------------------------------------------------------
// Link domain
// ---------------------------------------------------------------

/** Scenario + sweep knobs. Defaults are the tier-1 configuration. */
struct NetExplorerConfig
{
    /** Host interpreter threads for every handle in the scenario. */
    int host_threads = 1;

    /** Arrival count (deadlines effectively unbounded so the
     *  fault-free completion set is exactly the admit set). */
    std::size_t n_requests = 24;

    /** Low-class fraction of the arrival mix. */
    double low_fraction = 0.25;

    /** Length of the swept link-down window, us. */
    double down_for_us = 3'000.0;

    /** Seeded message-loss rate armed on every link of the scenario
     *  (0 = loss off; the sweep then exercises pure partitions). */
    double loss_rate = 0.0;

    /** Seed of the dedicated link-loss stream. */
    std::uint64_t link_seed = 11;

    /** Sweep budget: down-window start instants tested across
     *  [0, baseline end], evenly spaced, endpoints included. */
    std::size_t max_points = 12;

    /** Shrink each violation to a minimal failing microsecond. */
    bool bisect = true;
};

/**
 * Check one link-down instant: run the scenario with the
 * controller->replica link down over [down_at_us, down_at_us +
 * down_for_us) and return every violated invariant (empty = all
 * hold).
 */
std::vector<std::string>
checkLinkDownPoint(const NetExplorerConfig& cfg,
                   std::uint64_t down_at_us);

/** Sweep down-window starts over [0, fault-free end in whole us]. */
ExploreReport exploreLinkDownPoints(const NetExplorerConfig& cfg);

/**
 * One measured mid-trace partition episode (the
 * bench/partition_tolerance unit): the link cuts at a fixed fraction
 * of the fault-free end time and heals after down_for_us.
 */
struct PartitionMeasurement
{
    std::uint64_t baseline_end_us = 0;
    std::uint64_t down_at_us = 0;

    /** Fault-free vs partitioned run ends and completions. */
    double faulted_end_us = 0.0;
    std::uint64_t completed = 0;

    /** Goodput (completions per simulated second). */
    double baseline_goodput = 0.0;
    double faulted_goodput = 0.0;

    /** Partition bookkeeping from the faulted run. */
    std::uint64_t fenced = 0;
    std::uint64_t fence_drops = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t sends_blocked = 0;
    std::uint64_t unreachable_skips = 0;
    std::uint64_t link_downs = 0;

    /** Invariant check against the fault-free baseline. */
    std::vector<std::string> violations;
};

/** Partition at `at_fraction * baseline_end_us` (clamped to [0, 1])
 *  and measure the episode. */
PartitionMeasurement measurePartition(const NetExplorerConfig& cfg,
                                      double at_fraction);

/**
 * One measured standby promotion over the links: a replica's device
 * wedges mid-trace and the fleet ships the parameter blob to a warm
 * standby -- rack-local (fast same-rack link) or cross-rack (slow
 * inter-rack link) -- before the re-JIT.
 */
struct PromotionMeasurement
{
    bool joined = false;           //!< the standby entered rotation
    bool rack_local = false;       //!< standby shared the lost rack
    std::uint64_t ship_bytes = 0;  //!< parameter bytes shipped
    std::uint64_t ship_chunks = 0; //!< chunks delivered
    std::uint64_t ship_retries = 0;
    std::uint64_t ship_us = 0;     //!< ship wall time, whole us
    std::uint64_t completed = 0;
    std::vector<std::string> violations;
};

/** Measure a promotion with the standby placed rack-local to the
 *  lost replica (@p rack_local) or across racks. */
PromotionMeasurement measurePromotion(const NetExplorerConfig& cfg,
                                      bool rack_local);

} // namespace serve

/**
 * @file
 * Request model and accounting for the serving front-end.
 *
 * A request names a dataset input of the one served model, a
 * priority class, an arrival instant, and an absolute deadline, all
 * in the device's simulated clock. Every request ends in exactly
 * one outcome, and the outcome counters reconcile by construction:
 *
 *   arrivals = admitted + rejected_queue_full + rejected_infeasible
 *            + shed
 *   admitted = completed + timed_out + failed
 *
 * so overload can never silently drop work (DESIGN.md section 4.7).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace serve {

/** Priority class; Low is the brown-out ladder's first victim. */
enum class RequestClass : std::uint8_t
{
    High = 0,
    Low = 1,
};

/** One inference request. */
struct Request
{
    /** Unique, monotonically increasing (the deterministic tie
     *  breaker everywhere requests are ordered). */
    std::uint64_t id = 0;

    RequestClass cls = RequestClass::High;

    /** Dataset item to build the input graph from. */
    std::size_t input_index = 0;

    /** Arrival instant, simulated us (device clock). */
    double arrival_us = 0.0;

    /** Absolute completion deadline, simulated us. */
    double deadline_us = 0.0;
};

/** Every request's final disposition. */
enum class Outcome : std::uint8_t
{
    Completed,          //!< finished before its deadline
    TimedOut,           //!< admitted, but expired (queue or late)
    Failed,             //!< admitted, but every attempt errored
    RejectedQueueFull,  //!< bounced at arrival: queue at capacity
    RejectedInfeasible, //!< bounced at arrival: deadline unmeetable
    Shed,               //!< bounced at arrival: brown-out shed (Low)
};

/** The arrival-time admission decision for one request. The values
 *  are the journal's wire encoding (serve/durability.hpp). */
enum class AdmissionDecision : std::uint8_t
{
    Admit = 0,
    RejectQueueFull = 1,
    RejectInfeasible = 2,
    Shed = 3,
};

struct RequestLedger;

/** The High-class slice of the admitted identity, kept by the fleet
 *  for its no-lost-High invariant. */
struct HighSlice
{
    std::uint64_t admitted_high = 0;
    std::uint64_t completed_high = 0;
    std::uint64_t timed_out_high = 0;
    std::uint64_t failed_high = 0;
};

/**
 * Where one booked disposition lands: its ledger counter, its
 * High-class counter, and the names a front end mirrors it under --
 * the trace instant "<cat>.<instant>" on its lane and the registry
 * counter "<cat>.<metric>" (plus "<cat>.<metric>_high" where it keeps
 * the High slice).
 */
struct Disposition
{
    const char* instant;
    const char* metric;
    std::uint64_t RequestLedger::*count;
    std::uint64_t HighSlice::*high; //!< null: no High slice
};

/**
 * The request dispositions both front ends book, and the two
 * identities they reconcile by (see the file header). Each front end
 * books through book() and mirrors the returned row; only the lane,
 * the metric prefix and the payloads differ.
 */
struct RequestLedger
{
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_infeasible = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t failed = 0;

    /** Book one arrival under @p dec. @return its row. */
    const Disposition& book(AdmissionDecision dec);

    /** Book one admitted request's final disposition: Completed,
     *  TimedOut, and any other outcome as failed. @return its row. */
    const Disposition& book(Outcome outcome);

    /** The no-silent-drops invariant. */
    bool
    reconciled() const
    {
        return arrivals == admitted + rejected_queue_full +
                               rejected_infeasible + shed &&
               admitted == completed + timed_out + failed;
    }
};

/** The Server's counters: the ledger plus its own diagnostics. */
struct ServerCounters : RequestLedger
{
    /** @name Non-disposition diagnostics (not part of reconciliation)
     *  @{ */

    /** Admitted requests that expired before ever dispatching
     *  (a subset of timed_out). */
    std::uint64_t cancelled_before_dispatch = 0;

    /** Re-enqueues after failed batches (per attempt, not request). */
    std::uint64_t retries = 0;

    /** Batches dispatched while serving, retried batches included
     *  (calibration probes precede serving and are not counted). */
    std::uint64_t batches = 0;

    /** Batches routed to the GEMM-fallback kernel by the breaker. */
    std::uint64_t fallback_batches = 0;

    /** Arrivals observed at each brown-out level (0..3). */
    std::uint64_t arrivals_at_level[4] = {0, 0, 0, 0};
    /** @} */
};

/**
 * Order statistics over completed-request latencies. Computed by an
 * obs::Histogram (exact nearest-rank percentiles over the retained
 * samples), so a serving report and a metrics-registry dump of the
 * same run can never disagree.
 */
struct LatencyStats
{
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
};

/** @return order statistics of @p latencies_us (unsorted input). */
LatencyStats latencyStats(const std::vector<double>& latencies_us);

} // namespace serve

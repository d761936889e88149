/**
 * @file
 * Overload-tolerant inference front-end over one VPPS handle.
 *
 * The Server serves one model from one handle. It runs a
 * discrete-event simulation in the device's simulated clock: an
 * open-loop arrival trace feeds admission control (bounded queue +
 * deadline feasibility against the cost model), admitted requests
 * wait in a deadline-aware dynamic batcher, and batches execute
 * through vpps::Handle's recoverable inference path. Its sizing
 * probe, node prior, backlog estimate and dispatch timing are the
 * Fleet's too (serve/service_time.hpp). Robustness mechanics:
 *
 *  - per-request timeout enforcement in simulated time, with
 *    cancellation of queued requests whose deadline already passed;
 *  - an exponential-backoff retry budget per request class for
 *    batches that fail through the whole fbTry recovery ladder;
 *  - a circuit breaker that trips on repeated primary kernel
 *    failures, routes traffic to the pre-JITted GEMM-fallback
 *    kernel, and probes the primary again after a cooldown;
 *  - brown-out degradation driven by queue-depth watermarks
 *    (shrink batching window -> shed Low class -> reject all).
 *
 * Everything is deterministic: the same arrival trace against the
 * same model yields bitwise-identical admission decisions,
 * latencies, and counters at any host thread count, because all
 * timing comes from the simulated clocks, never the host's.
 */
#pragma once

#include <optional>
#include <vector>

#include "models/benchmark_model.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request.hpp"
#include "vpps/handle.hpp"

namespace serve {

struct ServerConfig
{
    AdmissionConfig admission;
    BatchPolicy batch;
    BreakerConfig breaker;

    /** Retry budget (re-dispatches after a failed batch); retry k
     *  waits 1000 us * 2^(k-1). */
    int max_retries_high = 2;
    int max_retries_low = 0;
};

/** Breaker observability for reports. */
struct BreakerReport
{
    CircuitBreaker::State state = CircuitBreaker::State::Closed;
    std::uint64_t trips = 0;
    std::uint64_t probes = 0;
    std::uint64_t reopens = 0;
    std::uint64_t closes = 0;
};

struct Report
{
    ServerCounters counters;
    LatencyStats latency;
    BreakerReport breaker;
    double capacity_per_sec = 0.0;
    double sim_end_us = 0.0;
};

class Server
{
public:
    /**
     * Borrow the model @p bm and the @p handle that executes it
     * (build the handle with async = false and degrade_on_failure =
     * false so the breaker owns failure routing) and pre-JIT its
     * GEMM fallback.
     */
    Server(gpusim::Device& device, models::BenchmarkModel& bm,
           vpps::Handle& handle, ServerConfig cfg = {});

    /**
     * Measure the batch service time by probing batches of size 1
     * and max_batch through the live handle (serve::probeBatchUs: a
     * few attempts each, tolerating injected faults). Falls back to
     * the JIT cost model's analytic estimate when probes fail. Call
     * before run() for measurement-based admission; otherwise the
     * analytic prior is used throughout.
     */
    void calibrate();

    /** Sustainable throughput estimate: max_batch-sized batches,
     *  requests/second. */
    double capacityPerSec() const;

    /** Estimated service time of an @p items -sized batch, us. */
    double serviceUs(std::size_t items) const;

    /**
     * Serve @p arrivals (must be sorted by arrival_us; generate via
     * generateOpenLoopArrivals) to completion: the call returns when
     * every arrival has a final outcome and the queue is empty.
     * May be called repeatedly; state (clock, breaker, queue's
     * emptiness) carries over.
     */
    void run(const std::vector<Request>& arrivals);

    Report report() const;

    const ServerCounters& counters() const { return counters_; }

    /** Completed-request latencies in completion order (bitwise
     *  determinism probe for tests). */
    const std::vector<double>& latencies() const
    {
        return latencies_;
    }

    double nowUs() const { return now_; }

private:
    struct ServiceEstimate
    {
        bool calibrated = false;
        double fixed_us = 0.0;
        double per_item_us = 0.0;
        double nodes_per_item = 1.0;
    };

    struct InFlight
    {
        std::vector<Queued> items;
        bool ok = false;
        bool was_primary = true;
        double done_at_us = 0.0;
    };

    void onArrival(const Request& req);
    void dispatch();
    void complete();

    /** Count and trace a breaker transition away from @p before. */
    void noteBreaker(CircuitBreaker::State before);

    /** Mirror a booked disposition of request @p req_id: registry
     *  counter "serve.<metric>" and a serve-lane instant, named
     *  @p instant when set, else the row's. */
    void noteDisposition(const Disposition& d, std::uint64_t req_id,
                         double a0 = 0.0, double a1 = 0.0,
                         const char* instant = nullptr);

    gpusim::Device& device_;
    models::BenchmarkModel& bm_;
    vpps::Handle& handle_;
    ServerConfig cfg_;
    AdmissionController admission_;
    Batcher batcher_;
    CircuitBreaker breaker_;
    double not_before_ = 0.0; //!< retry-backoff gate
    ServiceEstimate est_;
    bool fallback_ready_ = false;
    ServerCounters counters_;
    std::vector<double> latencies_;
    std::optional<InFlight> in_flight_;
    double now_ = 0.0;
};

} // namespace serve

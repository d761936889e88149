/**
 * @file
 * Overload-tolerant inference front-end over VPPS handles.
 *
 * The Server runs a discrete-event simulation in the device's
 * simulated clock: an open-loop arrival trace feeds per-endpoint
 * admission control (bounded queue + deadline feasibility against
 * the cost model), admitted requests wait in a deadline-aware
 * dynamic batcher, and batches execute through vpps::Handle's
 * recoverable inference path. Robustness mechanics:
 *
 *  - per-request timeout enforcement in simulated time, with
 *    cancellation of queued requests whose deadline already passed;
 *  - an exponential-backoff retry budget per request class for
 *    batches that fail through the whole fbTry recovery ladder;
 *  - a per-endpoint circuit breaker that trips on repeated primary
 *    kernel failures, routes traffic to the pre-JITted GEMM-fallback
 *    kernel, and probes the primary again after a cooldown;
 *  - brown-out degradation driven by queue-depth watermarks
 *    (shrink batching window -> shed Low class -> reject all).
 *
 * Everything is deterministic: the same arrival trace against the
 * same endpoints yields bitwise-identical admission decisions,
 * latencies, and counters at any host thread count, because all
 * timing comes from the simulated clocks, never the host's.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "models/benchmark_model.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request.hpp"
#include "vpps/handle.hpp"

namespace serve {

/** One served model: a name, its dataset/model wrapper, and the
 *  VPPS handle that executes it. The server borrows both. */
struct Endpoint
{
    std::string name;
    models::BenchmarkModel* bm = nullptr;
    vpps::Handle* handle = nullptr;
};

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

/** Per-endpoint breaker observability for reports. */
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
    std::vector<BreakerReport> breakers;
    double capacity_per_sec = 0.0;
    double sim_end_us = 0.0;
};

class Server
{
public:
    /**
     * Borrow @p endpoints (handles should be built with async =
     * false and degrade_on_failure = false so the breaker owns
     * failure routing) and pre-JIT each endpoint's GEMM fallback.
     * panic()s on an empty endpoint list.
     */
    Server(gpusim::Device& device, std::vector<Endpoint> endpoints,
           ServerConfig cfg = {});

    /**
     * Measure per-endpoint batch service time by probing batches of
     * size 1 and max_batch through the live handles (a few attempts
     * each, tolerating injected faults). Falls back to the JIT cost
     * model's analytic estimate when probes fail. Call before run()
     * for measurement-based admission; otherwise the analytic prior
     * is used throughout.
     */
    void calibrate();

    /** Sustainable throughput estimate: max_batch-sized batches on
     *  the slowest endpoint, requests/second. */
    double capacityPerSec() const;

    /** Estimated service time of an @p items -sized batch on
     *  endpoint @p ep, us. */
    double serviceUs(int ep, std::size_t items) const;

    /**
     * Serve @p arrivals (must be sorted by arrival_us; generate via
     * generateOpenLoopArrivals) to completion: the call returns when
     * every arrival has a final outcome and all queues are empty.
     * May be called repeatedly; state (clock, breaker, queues'
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

    const CircuitBreaker& breaker(int ep) const
    {
        return breakers_[static_cast<std::size_t>(ep)];
    }

    double nowUs() const { return now_; }

private:
    struct EndpointEstimate
    {
        bool calibrated = false;
        double fixed_us = 0.0;
        double per_item_us = 0.0;
        double nodes_per_item = 1.0;
    };

    struct InFlight
    {
        std::vector<Queued> items;
        int endpoint = 0;
        bool ok = false;
        bool was_primary = true;
        double done_at_us = 0.0;
    };

    /** One timed inference probe; @return batch wall us or < 0. */
    double probeBatchUs(int ep, std::size_t items);

    void onArrival(const Request& req);
    void dispatch(int ep);
    void complete();

    gpusim::Device& device_;
    std::vector<Endpoint> endpoints_;
    ServerConfig cfg_;
    AdmissionController admission_;
    std::vector<Batcher> batchers_;
    std::vector<CircuitBreaker> breakers_;
    std::vector<double> not_before_;     //!< retry-backoff gates
    std::vector<EndpointEstimate> est_;
    std::vector<bool> fallback_ready_;
    ServerCounters counters_;
    std::vector<double> latencies_;
    std::optional<InFlight> in_flight_;
    double now_ = 0.0;
};

} // namespace serve

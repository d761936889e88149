/** @file Discrete-event serving loop. */
#include "serve/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "graph/expr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace serve {

namespace {

/** Base retry backoff, us: retry k of a failed batch's requests
 *  waits kRetryBackoffUs * 2^(k-1). */
constexpr double kRetryBackoffUs = 1'000.0;

/** Bump a registry counter iff a registry is attached. */
inline void
count(gpusim::Device& device, const char* name)
{
    if (obs::MetricsRegistry* mx = device.metrics())
        mx->counter(name).add();
}

/** Build one batch super-graph: one loss per queued request. */
graph::Expr
buildBatchGraph(models::BenchmarkModel& bm,
                graph::ComputationGraph& cg,
                const std::vector<Queued>& items)
{
    std::vector<graph::Expr> losses;
    losses.reserve(items.size());
    for (const Queued& q : items)
        losses.push_back(bm.buildLoss(cg, q.req.input_index));
    return graph::sumLosses(std::move(losses));
}

} // namespace

Server::Server(gpusim::Device& device, models::BenchmarkModel& bm,
               vpps::Handle& handle, ServerConfig cfg)
    : device_(device), bm_(bm), handle_(handle), cfg_(cfg),
      admission_(cfg.admission), batcher_(cfg.batch),
      breaker_(cfg.breaker)
{
    // Analytic prior: nodes per item from one input's graph.
    graph::ComputationGraph cg;
    bm_.buildLoss(cg, 0);
    est_.nodes_per_item =
        std::max<double>(1.0, static_cast<double>(cg.size()));
    // Pre-JIT the breaker's escape hatch.
    auto st = handle_.prepareFallback(bm_.model());
    fallback_ready_ = st.ok();
    if (!st.ok())
        common::warn("Server: fallback unavailable, breaker cannot "
                     "reroute: ",
                     st.toString());
    now_ = device_.clockUs();
}

double
Server::probeBatchUs(std::size_t items)
{
    const std::size_t n = bm_.datasetSize();
    for (int attempt = 0; attempt < 3; ++attempt) {
        graph::ComputationGraph cg;
        std::vector<Queued> probe(items);
        for (std::size_t j = 0; j < items; ++j)
            probe[j].req.input_index = j % n;
        auto loss = buildBatchGraph(bm_, cg, probe);
        const double before = handle_.stats().wall_us;
        auto r = handle_.inferTry(bm_.model(), cg, loss);
        if (r.ok())
            return handle_.stats().wall_us - before;
    }
    return -1.0;
}

void
Server::calibrate()
{
    const std::size_t m = cfg_.batch.max_batch;
    const double us1 = probeBatchUs(1);
    const double usM = m > 1 ? probeBatchUs(m) : us1;
    if (us1 > 0.0 && usM > 0.0 && m > 1) {
        est_.per_item_us =
            std::max(0.0, (usM - us1) / static_cast<double>(m - 1));
        est_.fixed_us = std::max(0.0, us1 - est_.per_item_us);
        est_.calibrated = true;
    } else {
        common::warn("Server: calibration probes failed; admission "
                     "uses the analytic cost model");
    }
}

double
Server::serviceUs(std::size_t items) const
{
    if (est_.calibrated)
        return est_.fixed_us +
               est_.per_item_us * static_cast<double>(items);
    return handle_.estimateBatchUs(items, est_.nodes_per_item);
}

double
Server::capacityPerSec() const
{
    const std::size_t m = std::max<std::size_t>(1, cfg_.batch.max_batch);
    return static_cast<double>(m) / std::max(1.0, serviceUs(m)) * 1e6;
}

void
Server::onArrival(const Request& req)
{
    const std::size_t depth = batcher_.depth();
    const BrownoutLevel level = admission_.levelFor(depth);

    ++counters_.arrivals;
    ++counters_.arrivals_at_level[static_cast<int>(level)];
    count(device_, "serve.arrivals");

    // Earliest dispatch: device free, backoff gate open, plus the
    // backlog's worth of full batches queued ahead of this request.
    const double busy_until =
        in_flight_ ? in_flight_->done_at_us : now_;
    double est_start = std::max({now_, busy_until, not_before_});
    const std::size_t m = cfg_.batch.max_batch;
    est_start += static_cast<double>(depth / std::max<std::size_t>(1, m)) *
                 serviceUs(m);
    const std::size_t batch_items = std::min(depth + 1, m);
    const double est_service =
        batcher_.windowUs(level) + serviceUs(batch_items);

    // One instant per admission decision on the serve lane, with the
    // request id as context and the brown-out level as payload; the
    // matching "serve.*" counters mirror ServerCounters one-for-one
    // (the reconciliation identities carry over to the registry).
    obs::Tracer* const tracer = device_.tracer();
    auto decided = [&](const char* name, const char* metric) {
        if (tracer)
            tracer->instant(obs::kLaneServe, "serve", name, now_,
                            static_cast<std::int64_t>(req.id),
                            static_cast<double>(level),
                            static_cast<double>(depth));
        count(device_, metric);
    };

    switch (admission_.decide(req, depth, est_start, est_service)) {
    case AdmissionController::Decision::Admit:
        ++counters_.admitted;
        decided("admit", "serve.admitted");
        batcher_.enqueue(Queued{req, 0, now_});
        break;
    case AdmissionController::Decision::RejectQueueFull:
        ++counters_.rejected_queue_full;
        decided("reject_queue_full", "serve.rejected_queue_full");
        break;
    case AdmissionController::Decision::RejectInfeasible:
        ++counters_.rejected_infeasible;
        decided("reject_infeasible", "serve.rejected_infeasible");
        break;
    case AdmissionController::Decision::Shed:
        ++counters_.shed;
        decided("shed", "serve.shed");
        break;
    }
}

void
Server::noteBreaker(CircuitBreaker::State before)
{
    const CircuitBreaker::State after = breaker_.state();
    if (after == before)
        return;
    count(device_, "serve.breaker_transitions");
    if (obs::Tracer* const tracer = device_.tracer())
        tracer->instant(obs::kLaneServe, "breaker",
                        breakerStateName(after), now_, 0,
                        static_cast<double>(before));
}

void
Server::timeOut(const Queued& q, const char* event)
{
    ++counters_.timed_out;
    count(device_, "serve.timed_out");
    if (obs::Tracer* const tracer = device_.tracer())
        tracer->instant(obs::kLaneServe, "serve", event, now_,
                        static_cast<std::int64_t>(q.req.id));
}

void
Server::dispatch()
{
    // Cancel queued requests that can no longer make their deadline.
    for (const Queued& dead : batcher_.expire(now_)) {
        ++counters_.cancelled_before_dispatch;
        count(device_, "serve.cancelled_before_dispatch");
        timeOut(dead, "expire");
    }
    std::vector<Queued> items = batcher_.form(now_);
    if (items.empty())
        return; // everything expired; no batch this round

    bool primary = true;
    if (fallback_ready_) {
        const CircuitBreaker::State before = breaker_.state();
        primary = breaker_.usePrimary(now_);
        noteBreaker(before);
        handle_.setRouteToFallback(!primary);
    }

    graph::ComputationGraph cg;
    auto loss = buildBatchGraph(bm_, cg, items);
    const double wall_before = handle_.stats().wall_us;
    const double busy_before = device_.busyUs();
    auto r = handle_.inferTry(bm_.model(), cg, loss);
    // Simulated batch duration: the handle's pipelined wall time on
    // success; the device time burned by the failed attempts
    // otherwise. Clamped so completion strictly follows dispatch.
    double dur = r.ok() ? handle_.stats().wall_us - wall_before
                        : device_.busyUs() - busy_before;
    if (dur < 1.0)
        dur = 1.0;

    ++counters_.batches;
    count(device_, "serve.batches");
    if (!primary) {
        ++counters_.fallback_batches;
        count(device_, "serve.fallback_batches");
    }
    if (obs::Tracer* const tracer = device_.tracer())
        tracer->complete(obs::kLaneServe, "serve",
                         primary ? "batch" : "fallback_batch", now_,
                         dur, 0, static_cast<double>(items.size()),
                         r.ok() ? 1.0 : 0.0);
    in_flight_ = InFlight{std::move(items), r.ok(), primary, now_ + dur};
}

void
Server::complete()
{
    InFlight fb = std::move(*in_flight_);
    in_flight_.reset();
    obs::Tracer* const tracer = device_.tracer();
    obs::MetricsRegistry* const mx = device_.metrics();

    if (fb.was_primary) {
        const CircuitBreaker::State before = breaker_.state();
        if (fb.ok)
            breaker_.onPrimarySuccess();
        else
            breaker_.onPrimaryFailure(now_);
        noteBreaker(before);
    }

    if (fb.ok) {
        for (const Queued& q : fb.items) {
            if (fb.done_at_us > q.req.deadline_us) {
                timeOut(q, "timeout");
                continue;
            }
            ++counters_.completed;
            const double latency = fb.done_at_us - q.req.arrival_us;
            latencies_.push_back(latency);
            count(device_, "serve.completed");
            if (mx)
                mx->histogram("serve.latency_us").observe(latency);
            if (tracer)
                tracer->instant(obs::kLaneServe, "serve", "complete",
                                now_,
                                static_cast<std::int64_t>(q.req.id),
                                latency);
        }
        return;
    }

    // Re-enqueue survivors at the queue front in their original
    // order (reverse iteration + push_front), gated by exponential
    // backoff; exhausted or expired requests get final outcomes.
    int deepest_attempt = 0;
    for (auto it = fb.items.rbegin(); it != fb.items.rend(); ++it) {
        Queued& q = *it;
        if (q.req.deadline_us <= now_) {
            timeOut(q, "timeout");
            continue;
        }
        const int budget = q.req.cls == RequestClass::High
                               ? cfg_.max_retries_high
                               : cfg_.max_retries_low;
        if (q.attempts < budget) {
            Queued again = q;
            ++again.attempts;
            again.enqueue_us = now_;
            deepest_attempt =
                std::max(deepest_attempt, again.attempts);
            batcher_.enqueueFront(std::move(again));
            ++counters_.retries;
            count(device_, "serve.retries");
            if (tracer)
                tracer->instant(
                    obs::kLaneServe, "serve", "retry", now_,
                    static_cast<std::int64_t>(q.req.id),
                    static_cast<double>(q.attempts + 1));
        } else {
            ++counters_.failed;
            count(device_, "serve.failed");
            if (tracer)
                tracer->instant(
                    obs::kLaneServe, "serve", "fail", now_,
                    static_cast<std::int64_t>(q.req.id),
                    static_cast<double>(q.attempts));
        }
    }
    if (deepest_attempt > 0) {
        const double backoff =
            kRetryBackoffUs * std::ldexp(1.0, deepest_attempt - 1);
        not_before_ = std::max(not_before_, now_ + backoff);
    }
}

void
Server::run(const std::vector<Request>& arrivals)
{
    std::size_t next = 0;
    while (true) {
        // Candidate events, processed in a fixed tie order:
        // completion, then arrival, then dispatch.
        constexpr int kNone = -1, kComplete = 0, kArrive = 1,
                      kDispatch = 2;
        int kind = kNone;
        double when = 0.0;

        if (in_flight_) {
            kind = kComplete;
            when = in_flight_->done_at_us;
        }
        if (next < arrivals.size()) {
            const double t = arrivals[next].arrival_us;
            if (kind == kNone || t < when) {
                kind = kArrive;
                when = t;
            }
        }
        if (!in_flight_) {
            const BrownoutLevel level =
                admission_.levelFor(batcher_.depth());
            const double r = batcher_.readyAt(level, not_before_);
            if (r >= 0.0 && (kind == kNone || std::max(r, now_) < when)) {
                kind = kDispatch;
                when = std::max(r, now_);
            }
        }
        if (kind == kNone)
            break;

        now_ = std::max(now_, when);
        device_.advanceClockTo(now_);
        switch (kind) {
        case kComplete:
            complete();
            break;
        case kArrive:
            onArrival(arrivals[next++]);
            break;
        case kDispatch:
            dispatch();
            break;
        default:
            break;
        }
    }
}

Report
Server::report() const
{
    Report rep;
    rep.counters = counters_;
    rep.latency = latencyStats(latencies_);
    rep.breaker = BreakerReport{breaker_.state(), breaker_.trips(),
                                breaker_.probes(), breaker_.reopens(),
                                breaker_.closes()};
    rep.capacity_per_sec = capacityPerSec();
    rep.sim_end_us = now_;
    return rep;
}

} // namespace serve

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

Server::Server(gpusim::Device& device,
               std::vector<Endpoint> endpoints, ServerConfig cfg)
    : device_(device), endpoints_(std::move(endpoints)), cfg_(cfg),
      admission_(cfg.admission)
{
    if (endpoints_.empty())
        common::panic("Server: need at least one endpoint");
    const std::size_t n = endpoints_.size();
    batchers_.assign(n, Batcher(cfg_.batch));
    breakers_.assign(n, CircuitBreaker(cfg_.breaker));
    not_before_.assign(n, 0.0);
    est_.assign(n, EndpointEstimate{});
    fallback_ready_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        Endpoint& e = endpoints_[i];
        if (e.bm == nullptr || e.handle == nullptr)
            common::panic("Server: endpoint '", e.name,
                          "' missing model or handle");
        // Analytic prior: nodes per item from one input's graph.
        graph::ComputationGraph cg;
        e.bm->buildLoss(cg, 0);
        est_[i].nodes_per_item =
            std::max<double>(1.0, static_cast<double>(cg.size()));
        // Pre-JIT the breaker's escape hatch.
        auto st = e.handle->prepareFallback(e.bm->model());
        fallback_ready_[i] = st.ok();
        if (!st.ok())
            common::warn("Server: endpoint '", e.name,
                         "': fallback unavailable, breaker cannot "
                         "reroute: ",
                         st.toString());
    }
    now_ = device_.clockUs();
}

double
Server::probeBatchUs(int ep, std::size_t items)
{
    Endpoint& e = endpoints_[static_cast<std::size_t>(ep)];
    const std::size_t n = e.bm->datasetSize();
    for (int attempt = 0; attempt < 3; ++attempt) {
        graph::ComputationGraph cg;
        std::vector<Queued> probe(items);
        for (std::size_t j = 0; j < items; ++j)
            probe[j].req.input_index = j % n;
        auto loss = buildBatchGraph(*e.bm, cg, probe);
        const double before = e.handle->stats().wall_us;
        auto r = e.handle->inferTry(e.bm->model(), cg, loss);
        if (r.ok())
            return e.handle->stats().wall_us - before;
    }
    return -1.0;
}

void
Server::calibrate()
{
    const std::size_t m = cfg_.batch.max_batch;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        const double us1 = probeBatchUs(static_cast<int>(i), 1);
        const double usM =
            m > 1 ? probeBatchUs(static_cast<int>(i), m) : us1;
        if (us1 > 0.0 && usM > 0.0 && m > 1) {
            est_[i].per_item_us = std::max(
                0.0, (usM - us1) / static_cast<double>(m - 1));
            est_[i].fixed_us =
                std::max(0.0, us1 - est_[i].per_item_us);
            est_[i].calibrated = true;
        } else {
            common::warn("Server: endpoint '", endpoints_[i].name,
                         "': calibration probes failed; admission "
                         "uses the analytic cost model");
        }
    }
}

double
Server::serviceUs(int ep, std::size_t items) const
{
    const auto& est = est_[static_cast<std::size_t>(ep)];
    if (est.calibrated)
        return est.fixed_us +
               est.per_item_us * static_cast<double>(items);
    return endpoints_[static_cast<std::size_t>(ep)]
        .handle->estimateBatchUs(items, est.nodes_per_item);
}

double
Server::capacityPerSec() const
{
    const std::size_t m = std::max<std::size_t>(1, cfg_.batch.max_batch);
    double cap = 0.0;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        const double us = serviceUs(static_cast<int>(i), m);
        const double c =
            static_cast<double>(m) / std::max(1.0, us) * 1e6;
        cap = (i == 0) ? c : std::min(cap, c);
    }
    return cap;
}

void
Server::onArrival(const Request& req)
{
    const auto ep = static_cast<std::size_t>(req.endpoint);
    Batcher& b = batchers_[ep];
    const std::size_t depth = b.depth();
    const BrownoutLevel level = admission_.levelFor(depth);

    ++counters_.arrivals;
    ++counters_.arrivals_at_level[static_cast<int>(level)];
    count(device_, "serve.arrivals");

    // Earliest dispatch: device free, backoff gate open, plus the
    // backlog's worth of full batches queued ahead of this request.
    const double busy_until =
        in_flight_ ? in_flight_->done_at_us : now_;
    double est_start =
        std::max({now_, busy_until, not_before_[ep]});
    const std::size_t m = cfg_.batch.max_batch;
    est_start += static_cast<double>(depth / std::max<std::size_t>(1, m)) *
                 serviceUs(req.endpoint, m);
    const std::size_t batch_items = std::min(depth + 1, m);
    const double est_service =
        b.windowUs(level) + serviceUs(req.endpoint, batch_items);

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

    const auto dec =
        admission_.decide(req, depth, est_start, est_service);
    switch (dec) {
    case AdmissionController::Decision::Admit:
        ++counters_.admitted;
        decided("admit", "serve.admitted");
        b.enqueue(Queued{req, 0, now_});
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
Server::dispatch(int ep)
{
    const auto i = static_cast<std::size_t>(ep);
    Batcher& b = batchers_[i];
    obs::Tracer* const tracer = device_.tracer();

    // Cancel queued requests that can no longer make their deadline.
    for (Queued& dead : b.expire(now_)) {
        ++counters_.timed_out;
        ++counters_.cancelled_before_dispatch;
        count(device_, "serve.timed_out");
        count(device_, "serve.cancelled_before_dispatch");
        if (tracer)
            tracer->instant(
                obs::kLaneServe, "serve", "expire", now_,
                static_cast<std::int64_t>(dead.req.id));
    }
    std::vector<Queued> items = b.form(now_);
    if (items.empty())
        return; // everything expired; no batch this round

    Endpoint& e = endpoints_[i];
    bool primary = true;
    if (fallback_ready_[i]) {
        const CircuitBreaker::State before = breakers_[i].state();
        primary = breakers_[i].usePrimary(now_);
        const CircuitBreaker::State after = breakers_[i].state();
        if (after != before) {
            count(device_, "serve.breaker_transitions");
            if (tracer)
                tracer->instant(obs::kLaneServe, "breaker",
                                breakerStateName(after), now_, ep,
                                static_cast<double>(before));
        }
        e.handle->setRouteToFallback(!primary);
    }

    graph::ComputationGraph cg;
    auto loss = buildBatchGraph(*e.bm, cg, items);
    const double wall_before = e.handle->stats().wall_us;
    const double busy_before = device_.busyUs();
    auto r = e.handle->inferTry(e.bm->model(), cg, loss);
    // Simulated batch duration: the handle's pipelined wall time on
    // success; the device time burned by the failed attempts
    // otherwise. Clamped so completion strictly follows dispatch.
    double dur = r.ok() ? e.handle->stats().wall_us - wall_before
                        : device_.busyUs() - busy_before;
    if (dur < 1.0)
        dur = 1.0;

    ++counters_.batches;
    count(device_, "serve.batches");
    if (!primary) {
        ++counters_.fallback_batches;
        count(device_, "serve.fallback_batches");
    }
    if (tracer)
        tracer->complete(obs::kLaneServe, "serve",
                         primary ? "batch" : "fallback_batch", now_,
                         dur, ep, static_cast<double>(items.size()),
                         r.ok() ? 1.0 : 0.0);
    in_flight_ =
        InFlight{std::move(items), ep, r.ok(), primary, now_ + dur};
}

void
Server::complete()
{
    InFlight fb = std::move(*in_flight_);
    in_flight_.reset();
    const auto i = static_cast<std::size_t>(fb.endpoint);
    obs::Tracer* const tracer = device_.tracer();
    obs::MetricsRegistry* const mx = device_.metrics();

    auto breakerMoved = [&](CircuitBreaker::State before) {
        const CircuitBreaker::State after = breakers_[i].state();
        if (after == before)
            return;
        count(device_, "serve.breaker_transitions");
        if (tracer)
            tracer->instant(obs::kLaneServe, "breaker",
                            breakerStateName(after), now_,
                            fb.endpoint,
                            static_cast<double>(before));
    };

    if (fb.ok) {
        if (fb.was_primary) {
            const CircuitBreaker::State before = breakers_[i].state();
            breakers_[i].onPrimarySuccess();
            breakerMoved(before);
        }
        for (const Queued& q : fb.items) {
            if (fb.done_at_us > q.req.deadline_us) {
                ++counters_.timed_out;
                count(device_, "serve.timed_out");
                if (tracer)
                    tracer->instant(
                        obs::kLaneServe, "serve", "timeout", now_,
                        static_cast<std::int64_t>(q.req.id));
            } else {
                ++counters_.completed;
                const double latency =
                    fb.done_at_us - q.req.arrival_us;
                latencies_.push_back(latency);
                count(device_, "serve.completed");
                if (mx)
                    mx->histogram("serve.latency_us")
                        .observe(latency);
                if (tracer)
                    tracer->instant(
                        obs::kLaneServe, "serve", "complete", now_,
                        static_cast<std::int64_t>(q.req.id),
                        latency);
            }
        }
        return;
    }

    if (fb.was_primary) {
        const CircuitBreaker::State before = breakers_[i].state();
        breakers_[i].onPrimaryFailure(now_);
        breakerMoved(before);
    }

    // Re-enqueue survivors at the queue front in their original
    // order (reverse iteration + push_front), gated by exponential
    // backoff; exhausted or expired requests get final outcomes.
    int deepest_attempt = 0;
    for (auto it = fb.items.rbegin(); it != fb.items.rend(); ++it) {
        Queued& q = *it;
        if (q.req.deadline_us <= now_) {
            ++counters_.timed_out;
            count(device_, "serve.timed_out");
            if (tracer)
                tracer->instant(
                    obs::kLaneServe, "serve", "timeout", now_,
                    static_cast<std::int64_t>(q.req.id));
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
            batchers_[i].enqueueFront(std::move(again));
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
        not_before_[i] = std::max(not_before_[i], now_ + backoff);
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
        int dispatch_ep = -1;
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
            for (std::size_t i = 0; i < batchers_.size(); ++i) {
                const BrownoutLevel level =
                    admission_.levelFor(batchers_[i].depth());
                double r =
                    batchers_[i].readyAt(level, not_before_[i]);
                if (r < 0.0)
                    continue;
                r = std::max(r, now_);
                if (kind == kNone || r < when) {
                    kind = kDispatch;
                    dispatch_ep = static_cast<int>(i);
                    when = r;
                }
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
            dispatch(dispatch_ep);
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
    rep.breakers.reserve(breakers_.size());
    for (const CircuitBreaker& brk : breakers_)
        rep.breakers.push_back(BreakerReport{
            brk.state(), brk.trips(), brk.probes(), brk.reopens(),
            brk.closes()});
    rep.capacity_per_sec = capacityPerSec();
    rep.sim_end_us = now_;
    return rep;
}

} // namespace serve

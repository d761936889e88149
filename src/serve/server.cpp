/** @file Discrete-event serving loop. */
#include "serve/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "graph/expr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service_time.hpp"

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
    est_.nodes_per_item = nodesPerItemPrior(bm_);
    // Pre-JIT the breaker's escape hatch.
    auto st = handle_.prepareFallback(bm_.model());
    fallback_ready_ = st.ok();
    if (!st.ok())
        common::warn("Server: fallback unavailable, breaker cannot "
                     "reroute: ",
                     st.toString());
    now_ = device_.clockUs();
}

void
Server::calibrate()
{
    const std::size_t m = cfg_.batch.max_batch;
    const double us1 = probeBatchUs(handle_, device_, bm_, 1);
    const double usM =
        m > 1 ? probeBatchUs(handle_, device_, bm_, m) : us1;
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

    ++counters_.arrivals_at_level[static_cast<int>(level)];
    count(device_, "serve.arrivals");

    // Earliest dispatch: device free, backoff gate open, plus the
    // backlog's worth of full batches queued ahead of this request.
    const BacklogEstimate est = estimateBacklog(
        batcher_, level, now_,
        in_flight_ ? in_flight_->done_at_us : now_, not_before_, 1,
        [this](std::size_t items) { return serviceUs(items); });

    // One instant per admission decision on the serve lane, with the
    // brown-out level and depth as payload.
    const auto dec =
        admission_.decide(req, depth, est.start_us, est.service_us);
    noteDisposition(counters_.book(dec), req.id,
                    static_cast<double>(level),
                    static_cast<double>(depth));
    if (dec == AdmissionController::Decision::Admit)
        batcher_.enqueue(Queued{req, 0, now_});
}

void
Server::noteDisposition(const Disposition& d, std::uint64_t req_id,
                        double a0, double a1, const char* instant)
{
    if (obs::MetricsRegistry* mx = device_.metrics())
        mx->counter(std::string("serve.") + d.metric).add();
    if (obs::Tracer* const tracer = device_.tracer())
        tracer->instant(obs::kLaneServe, "serve",
                        instant != nullptr ? instant : d.instant, now_,
                        static_cast<std::int64_t>(req_id), a0, a1);
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
Server::dispatch()
{
    // Cancel queued requests that can no longer make their deadline.
    for (const Queued& dead : batcher_.expire(now_)) {
        ++counters_.cancelled_before_dispatch;
        count(device_, "serve.cancelled_before_dispatch");
        noteDisposition(counters_.book(Outcome::TimedOut), dead.req.id,
                        0.0, 0.0, "expire");
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
    const TimedInference t =
        timedInfer(handle_, device_, bm_.model(), cg, loss);
    const bool ok = t.result.ok();
    const double dur = t.dur_us;

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
                         ok ? 1.0 : 0.0);
    in_flight_ = InFlight{std::move(items), ok, primary, now_ + dur};
}

void
Server::complete()
{
    InFlight fb = std::move(*in_flight_);
    in_flight_.reset();

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
                noteDisposition(counters_.book(Outcome::TimedOut),
                                q.req.id);
                continue;
            }
            const double latency = fb.done_at_us - q.req.arrival_us;
            latencies_.push_back(latency);
            if (obs::MetricsRegistry* mx = device_.metrics())
                mx->histogram("serve.latency_us").observe(latency);
            noteDisposition(counters_.book(Outcome::Completed),
                            q.req.id, latency);
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
            noteDisposition(counters_.book(Outcome::TimedOut), q.req.id);
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
            if (obs::Tracer* const tracer = device_.tracer())
                tracer->instant(
                    obs::kLaneServe, "serve", "retry", now_,
                    static_cast<std::int64_t>(q.req.id),
                    static_cast<double>(q.attempts + 1));
        } else {
            noteDisposition(counters_.book(Outcome::Failed), q.req.id,
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

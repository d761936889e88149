/** @file Request accounting helpers. */
#include "serve/request.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace serve {

namespace {

/** Indexed by admission decision (its wire value). */
constexpr Disposition kDecisions[] = {
    {"admit", "admitted", &RequestLedger::admitted,
     &HighSlice::admitted_high},
    {"reject_queue_full", "rejected_queue_full",
     &RequestLedger::rejected_queue_full, nullptr},
    {"reject_infeasible", "rejected_infeasible",
     &RequestLedger::rejected_infeasible, nullptr},
    {"shed", "shed", &RequestLedger::shed, nullptr},
};

/** Indexed by Outcome: the three an admitted request can end in. */
constexpr Disposition kOutcomes[] = {
    {"complete", "completed", &RequestLedger::completed,
     &HighSlice::completed_high},
    {"timeout", "timed_out", &RequestLedger::timed_out,
     &HighSlice::timed_out_high},
    {"fail", "failed", &RequestLedger::failed,
     &HighSlice::failed_high},
};
static_assert(static_cast<int>(Outcome::Completed) == 0 &&
              static_cast<int>(Outcome::TimedOut) == 1 &&
              static_cast<int>(Outcome::Failed) == 2);

} // namespace

const Disposition&
RequestLedger::book(AdmissionDecision dec)
{
    const Disposition& d = kDecisions[static_cast<std::size_t>(dec)];
    ++arrivals;
    ++(this->*d.count);
    return d;
}

const Disposition&
RequestLedger::book(Outcome outcome)
{
    // Replay decodes any outcome byte up to Shed; past Failed books
    // as failed and never indexes past the table.
    const Disposition& d = kOutcomes[std::min(
        static_cast<std::size_t>(outcome),
        static_cast<std::size_t>(Outcome::Failed))];
    ++(this->*d.count);
    return d;
}

LatencyStats
latencyStats(const std::vector<double>& latencies_us)
{
    obs::Histogram hist;
    for (const double v : latencies_us)
        hist.observe(v);

    LatencyStats out;
    out.count = hist.count();
    if (out.count == 0)
        return out;
    out.mean_us = hist.mean();
    out.p50_us = hist.percentile(0.50);
    out.p95_us = hist.percentile(0.95);
    out.p99_us = hist.percentile(0.99);
    out.max_us = hist.max();
    return out;
}

} // namespace serve

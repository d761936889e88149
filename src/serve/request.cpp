/** @file Request accounting helpers. */
#include "serve/request.hpp"

#include "obs/metrics.hpp"

namespace serve {

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

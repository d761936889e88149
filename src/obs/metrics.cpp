/** @file Metrics registry: histograms, exact percentiles, JSON. */
#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace obs {

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)),
      bucket_counts_(bounds_.size() + 1, 0)
{
    std::sort(bounds_.begin(), bounds_.end());
}

std::vector<double>
Histogram::defaultLatencyBucketsUs()
{
    // 1e2 .. 1e8 us in quarter-decade steps: wide enough for both a
    // single batch (~1 ms) and a saturated soak tail (~100 s).
    std::vector<double> bounds;
    for (int q = 8; q <= 32; ++q)
        bounds.push_back(std::pow(10.0, q / 4.0));
    return bounds;
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    bucket_counts_[static_cast<std::size_t>(
        it - bounds_.begin())]++;
    sum_ += v;
    if (!samples_.empty() && v < samples_.back())
        sorted_ = false;
    samples_.push_back(v);
}

double
Histogram::mean() const
{
    return samples_.empty()
               ? 0.0
               : sum_ / static_cast<double>(samples_.size());
}

double
Histogram::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank, identical to serve::percentileSorted: rank =
    // ceil(p*n) clamped to [1, n], value = sorted[rank-1].
    const auto n = static_cast<double>(samples_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    rank = std::min(std::max<std::size_t>(rank, 1),
                    samples_.size());
    return samples_[rank - 1];
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    return counters_[name];
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    return gauges_[name];
}

Histogram&
MetricsRegistry::histogram(const std::string& name)
{
    return histograms_.try_emplace(name).first->second;
}

Histogram&
MetricsRegistry::histogram(const std::string& name,
                           std::vector<double> bucket_bounds)
{
    return histograms_
        .try_emplace(name, std::move(bucket_bounds))
        .first->second;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
MetricsRegistry::gaugeValue(const std::string& name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value();
}

std::string
MetricsRegistry::json() const
{
    std::string out;
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, name);
        out += ": " + std::to_string(c.value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, name);
        out += ": ";
        appendJsonDouble(out, g.value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, name);
        out += ": {\"count\": " + std::to_string(h.count());
        out += ", \"mean_us\": ";
        appendJsonDouble(out, h.mean());
        out += ", \"p50_us\": ";
        appendJsonDouble(out, h.percentile(0.50));
        out += ", \"p95_us\": ";
        appendJsonDouble(out, h.percentile(0.95));
        out += ", \"p99_us\": ";
        appendJsonDouble(out, h.percentile(0.99));
        out += ", \"max_us\": ";
        appendJsonDouble(out, h.max());
        out += ", \"buckets\": [";
        const auto& bounds = h.bounds();
        const auto& counts = h.bucketCounts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i != 0)
                out += ", ";
            out += "{\"le\": ";
            if (i < bounds.size())
                appendJsonDouble(out, bounds[i]);
            else
                out += "\"inf\"";
            out += ", \"count\": " + std::to_string(counts[i]) +
                   "}";
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

common::Status
MetricsRegistry::writeJson(const std::string& path) const
{
    // Temp-write + rename: a crash (or a concurrent reader) never
    // sees a truncated metrics dump.
    return writeTextFileAtomic(path, json());
}

} // namespace obs

/**
 * @file
 * The metrics registry: named counters, gauges, and latency
 * histograms behind one interface (DESIGN.md section 4.8).
 *
 * Before this layer, every subsystem grew its own stat struct
 * (ServerCounters, RecoveryStats, TrafficStats, LatencyStats...).
 * Those structs remain the ground truth their tests assert against;
 * the registry is the *presentation plane* above them: subsystems
 * publish the same increments under stable dotted names, exporters
 * dump the registry as JSON, and the reconciliation tests
 * (metrics_test) assert that the registry totals reproduce the
 * structs' accounting identities exactly -- so a dashboard reading
 * the registry can never disagree with the simulator's accounting.
 *
 * Determinism rules match the tracer's: metrics are updated from
 * serial host code only (admission decisions, recovery rungs, the
 * post-run merge), never from interpreter workers, and values derive
 * from simulated quantities only.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace obs {

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time sampled value (byte totals, clock readings). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A latency histogram: fixed bucket bounds for cheap export plus the
 * raw samples for *exact* order statistics. The simulator serves
 * bounded request counts, so retaining samples is affordable and
 * makes p50/p95/p99 nearest-rank-exact rather than
 * bucket-interpolated (the property the reconciliation tests pin:
 * histogram count == completions, percentiles == the values
 * latencyStats() reports).
 */
class Histogram
{
  public:
    /** @param bucket_bounds ascending upper bounds, us; samples
     *  above the last bound land in an overflow bucket. */
    explicit Histogram(std::vector<double> bucket_bounds =
                           defaultLatencyBucketsUs());

    void observe(double v);

    std::uint64_t count() const { return samples_.size(); }
    double sum() const { return sum_; }
    double mean() const;
    double max() const;

    /**
     * Exact nearest-rank percentile of everything observed
     * (deterministic: always an observed value, matching
     * serve::latencyStats).
     *
     * @param p in [0, 1]
     */
    double percentile(double p) const;

    const std::vector<double>& bounds() const { return bounds_; }

    /** Per-bucket counts; size() == bounds().size() + 1 (overflow
     *  last). */
    const std::vector<std::uint64_t>& bucketCounts() const
    {
        return bucket_counts_;
    }

    /** Latency buckets from 100 us to ~100 s, quarter-decade steps. */
    static std::vector<double> defaultLatencyBucketsUs();

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> bucket_counts_;
    mutable std::vector<double> samples_; //!< sorted lazily
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

/**
 * Named metrics, created on first touch. Names are dotted paths
 * ("serve.admitted", "recovery.relaunch", "dram.load_bytes.weights");
 * the registry keeps them sorted so the JSON export is canonical.
 * References returned by counter()/gauge()/histogram() stay valid
 * for the registry's lifetime.
 */
class MetricsRegistry
{
  public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);
    Histogram& histogram(const std::string& name,
                         std::vector<double> bucket_bounds);

    /** @return the counter's value, 0 when it was never touched. */
    std::uint64_t counterValue(const std::string& name) const;

    /** @return the gauge's value, 0 when it was never touched. */
    double gaugeValue(const std::string& name) const;

    const std::map<std::string, Counter>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram>& histograms() const
    {
        return histograms_;
    }

    /**
     * The whole registry as a JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     * {"count":..,"mean_us":..,"p50_us":..,"p95_us":..,"p99_us":..,
     * "max_us":..,"buckets":[{"le":..,"count":..},...]}}}.
     */
    std::string json() const;

    /** Write json() to @p path. */
    common::Status writeJson(const std::string& path) const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace obs

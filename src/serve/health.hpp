/**
 * @file
 * Seeded health probing with phi-accrual suspicion.
 *
 * The fleet router cannot wait for a dispatched request to fail
 * before it stops routing to a dead replica: at 2x offered load a
 * single wasted dispatch blows deadlines. Instead every replica is
 * probed on a seeded-jitter schedule, and a phi-accrual failure
 * detector (Hayashibara et al.) turns "how long since the last
 * heartbeat" into a continuous suspicion level: phi ~ -log10 P(the
 * silence so far is benign), under the replica's own observed
 * heartbeat-gap distribution. The router treats phi >= threshold as
 * suspect and routes around the replica, long before anything is
 * declared dead.
 *
 * Everything runs in simulated time inside the fleet's serial event
 * loop, and the probe jitter draws from a dedicated seeded stream, so
 * suspicion traces are bitwise deterministic at any host thread
 * count.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace serve {

struct HealthConfig
{
    /** Nominal spacing between health probes per replica, us. */
    double probe_interval_us = 2'000.0;

    /** Seeded uniform jitter applied to each interval, as a fraction
     *  (0.1 -> each gap is interval * [0.9, 1.1)). Exercises the
     *  estimator with non-constant gaps while staying deterministic. */
    double jitter_frac = 0.1;

    /** Suspicion threshold: phi >= this routes traffic away. phi 8
     *  is ~8 nines of confidence the replica is gone. */
    double phi_threshold = 8.0;

    /** Heartbeat gaps retained for the mean-gap estimate. */
    int window = 8;

    /** Seed of the probe-jitter stream. */
    std::uint64_t seed = 7;
};

/**
 * Phi-accrual suspicion for one replica. heartbeat() feeds observed
 * probe successes; phi() converts the current silence into a
 * suspicion level against the windowed mean gap (exponential model:
 * phi = elapsed / mean_gap * log10 e).
 */
class PhiAccrualDetector
{
public:
    PhiAccrualDetector(const HealthConfig& cfg, double now_us);

    /** Record a successful probe of this replica at @p now_us. */
    void heartbeat(double now_us);

    /** Current suspicion level at @p now_us (0 right after a
     *  heartbeat, growing without bound during silence). */
    double phi(double now_us) const;

    bool
    suspect(double now_us) const
    {
        return phi(now_us) >= cfg_.phi_threshold;
    }

private:
    double meanGapUs() const;

    HealthConfig cfg_;
    std::vector<double> gaps_; //!< ring of recent heartbeat gaps
    std::size_t next_gap_ = 0;
    double last_us_ = 0.0;
};

/**
 * The fleet's probe scheduler: one phi detector per replica plus the
 * shared seeded jitter stream producing each replica's next probe
 * instant. Probe *execution* (asking the device if it is alive) stays
 * in the fleet, which owns the devices; the monitor only does time
 * and suspicion bookkeeping.
 */
class HealthMonitor
{
public:
    HealthMonitor(const HealthConfig& cfg, std::size_t replicas,
                  double now_us);

    /** Earliest pending probe instant across replicas. */
    double nextProbeUs() const;

    /** Replica whose probe fires next (lowest index on ties). */
    std::size_t nextProbeReplica() const;

    /**
     * Consume replica @p r's pending probe at @p now_us and schedule
     * its next one with seeded jitter. @p alive records a heartbeat;
     * a dead/stalled replica just stays silent and its phi grows.
     * With networked probes, @p rtt_us is the probe's measured
     * round-trip through the links: the heartbeat lands at
     * now + rtt (suspicion is driven by when the *reply* arrived,
     * so a degraded link legitimately widens the observed gaps),
     * while the next probe still departs on the schedule.
     */
    void recordProbe(std::size_t r, double now_us, bool alive,
                     double rtt_us = 0.0);

    /** Stop probing replica @p r (confirmed dead; its slot rejoins
     *  via reset()). */
    void disable(std::size_t r);

    /** Fresh detector + probe schedule for a rejoined replica. */
    void reset(std::size_t r, double now_us);

    const PhiAccrualDetector&
    detector(std::size_t r) const
    {
        return detectors_[r];
    }

    bool
    suspect(std::size_t r, double now_us) const
    {
        return detectors_[r].suspect(now_us);
    }

private:
    double jitteredInterval();

    HealthConfig cfg_;
    common::Rng rng_;
    std::vector<PhiAccrualDetector> detectors_;
    std::vector<double> next_probe_us_; //!< +inf when disabled
};

} // namespace serve

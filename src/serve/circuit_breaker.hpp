/**
 * @file
 * Circuit breaker guarding the specialized VPPS kernel (one per
 * Server, one per Fleet replica).
 *
 * The breaker watches launch outcomes of the register-cached primary
 * kernel. After @ref BreakerConfig::failure_threshold consecutive
 * failures it trips Open: batches route to the GEMM-fallback kernel
 * (which has no gradient caching and therefore dodges the failure
 * modes that only hit gradient-cached launches). After
 * @ref BreakerConfig::cooldown_us of simulated time the breaker moves
 * to HalfOpen and lets exactly one probe batch try the primary again;
 * @ref BreakerConfig::close_successes consecutive probe successes
 * re-close it, a single probe failure re-opens it and restarts the
 * cooldown.
 *
 * All times are simulated-device microseconds, so breaker behaviour
 * is bitwise deterministic for a given request trace.
 */
#pragma once

#include <cstdint>

namespace serve {

struct BreakerConfig
{
    /** Consecutive primary failures that trip Closed -> Open. */
    int failure_threshold = 3;

    /** Simulated us to stay Open before probing (HalfOpen). */
    double cooldown_us = 50'000.0;

    /** Consecutive probe successes that close the breaker again. */
    int close_successes = 2;
};

class CircuitBreaker
{
public:
    enum class State : std::uint8_t
    {
        Closed,   //!< primary healthy
        Open,     //!< primary quarantined; all traffic on fallback
        HalfOpen, //!< probing the primary with live batches
    };

    explicit CircuitBreaker(BreakerConfig cfg = {}) : cfg_(cfg) {}

    /**
     * Decide the route for a batch dispatched at @p now_us, advancing
     * Open -> HalfOpen when the cooldown has elapsed.
     *
     * @return true to use the primary kernel, false for the fallback.
     */
    bool usePrimary(double now_us);

    /** Record a successful primary batch (no-op when routed to the
     *  fallback: fallback successes never close the breaker). */
    void onPrimarySuccess();

    /** Record a failed primary batch at @p now_us. */
    void onPrimaryFailure(double now_us);

    State state() const { return state_; }

    /** @name Lifetime counters (deterministic observability) @{ */
    std::uint64_t trips() const { return trips_; }
    std::uint64_t probes() const { return probes_; }
    std::uint64_t reopens() const { return reopens_; }
    std::uint64_t closes() const { return closes_; }
    /** @} */

private:
    BreakerConfig cfg_;
    State state_ = State::Closed;
    int consecutive_failures_ = 0;
    int probe_successes_ = 0;
    double opened_at_us_ = 0.0;
    std::uint64_t trips_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t reopens_ = 0;
    std::uint64_t closes_ = 0;
};

/** @return a short stable name for a breaker state. */
const char* breakerStateName(CircuitBreaker::State s);

} // namespace serve

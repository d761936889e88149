/**
 * @file
 * Admission control and brown-out degradation for the serving layer.
 *
 * Admission decisions are made once, at arrival, against a bounded
 * queue. The controller also owns the brown-out ladder: queue-depth
 * watermarks map the instantaneous backlog to a degradation level,
 * and each level sheds progressively more load
 *
 *   Normal       -> full batching window, everything admitted
 *   ShrunkWindow -> batching window cut to a quarter
 *                   (lower latency, worse amortization)
 *   ShedLowClass -> Low-priority arrivals are shed outright
 *   RejectAll    -> every arrival is rejected (queue saturated)
 *
 * Watermarks are evaluated on the same backlog number every time, so
 * the level trace is a pure function of the arrival/completion trace.
 */
#pragma once

#include <cstddef>

#include "serve/request.hpp"

namespace serve {

/** Brown-out severity, ordered: higher sheds more load. */
enum class BrownoutLevel : int
{
    Normal = 0,
    ShrunkWindow = 1,
    ShedLowClass = 2,
    RejectAll = 3,
};

struct AdmissionConfig
{
    /** Hard bound on queued requests. */
    std::size_t queue_capacity = 64;

    /** Backlog at which the batching window shrinks. */
    std::size_t shrink_watermark = 16;

    /** Backlog at which Low-class arrivals are shed. */
    std::size_t shed_watermark = 32;
};

/**
 * Pure decision logic: the server feeds it backlog and timing
 * estimates, it answers admit / reject / shed. Holds no queues
 * itself, so it is trivially deterministic.
 */
class AdmissionController
{
public:
    explicit AdmissionController(AdmissionConfig cfg = {}) : cfg_(cfg)
    {
    }

    const AdmissionConfig& config() const { return cfg_; }

    /** Map a backlog depth to the brown-out ladder. */
    BrownoutLevel
    levelFor(std::size_t depth) const
    {
        if (depth >= cfg_.queue_capacity)
            return BrownoutLevel::RejectAll;
        if (depth >= cfg_.shed_watermark)
            return BrownoutLevel::ShedLowClass;
        if (depth >= cfg_.shrink_watermark)
            return BrownoutLevel::ShrunkWindow;
        return BrownoutLevel::Normal;
    }

    /** The arrival-time decision (serve/request.hpp). */
    using Decision = AdmissionDecision;

    /**
     * Multiplier on the estimated service time in the feasibility
     * check; > 1 leaves headroom for estimation error.
     */
    static constexpr double kSafetyFactor = 1.25;

    /**
     * Decide @p req's fate.
     *
     * The feasibility test is
     *   est_start + est_service * kSafetyFactor > deadline
     * -- the safety factor pads only the cost-model estimate, never
     * the absolute start instant.
     *
     * @param req            the arriving request.
     * @param depth          current backlog.
     * @param est_start_us   earliest instant its batch could dispatch
     *                       (now, or when the device frees up).
     * @param est_service_us batching window + cost-model batch time.
     */
    Decision
    decide(const Request& req, std::size_t depth, double est_start_us,
           double est_service_us) const
    {
        const BrownoutLevel level = levelFor(depth);
        if (level == BrownoutLevel::RejectAll)
            return Decision::RejectQueueFull;
        if (level >= BrownoutLevel::ShedLowClass &&
            req.cls == RequestClass::Low)
            return Decision::Shed;
        if (est_start_us + est_service_us * kSafetyFactor >
            req.deadline_us)
            return Decision::RejectInfeasible;
        return Decision::Admit;
    }

private:
    AdmissionConfig cfg_;
};

} // namespace serve

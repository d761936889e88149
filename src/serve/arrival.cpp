/** @file Poisson arrival trace generation. */
#include "serve/arrival.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace serve {

std::vector<Request>
generateOpenLoopArrivals(const ArrivalConfig& cfg, double start_us,
                         std::size_t dataset_size)
{
    if (cfg.rate_per_sec <= 0.0)
        common::panic("ArrivalConfig.rate_per_sec must be positive");
    if (dataset_size == 0)
        common::panic("arrival generation needs a non-empty dataset");

    common::Rng rng(cfg.seed);
    std::vector<Request> out;
    out.reserve(cfg.count);
    double t = start_us;
    for (std::size_t i = 0; i < cfg.count; ++i) {
        // Exponential interarrival gap, mean 1e6 / rate us. Clamp u
        // away from 1 so log() stays finite.
        double u = rng.nextDouble();
        if (u > 0.999999)
            u = 0.999999;
        t += -std::log(1.0 - u) * 1e6 / cfg.rate_per_sec;

        Request r;
        r.id = i;
        // This draw picks nothing; it keeps the stream's draw order,
        // so every seeded trace (and the pins recorded from them)
        // stays the same.
        rng.nextBelow(1);
        r.cls = rng.nextBernoulli(cfg.low_fraction)
                    ? RequestClass::Low
                    : RequestClass::High;
        r.input_index = rng.nextBelow(dataset_size);
        r.arrival_us = t;
        r.deadline_us = t + (r.cls == RequestClass::Low
                                 ? cfg.low_deadline_slack_us
                                 : cfg.deadline_slack_us);
        out.push_back(r);
    }
    return out;
}

} // namespace serve

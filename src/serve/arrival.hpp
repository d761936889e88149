/**
 * @file
 * Seeded open-loop arrival generation.
 *
 * Arrivals follow a Poisson process (exponential interarrival gaps)
 * drawn from a common::Rng, so the full trace -- instants, class
 * mix, input indices, deadlines -- is a pure function of the config.
 * Open loop: the generator never reacts to server state, which is
 * what makes overload (offered > capacity) possible.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.hpp"

namespace serve {

struct ArrivalConfig
{
    /** Offered load, requests per (simulated) second. */
    double rate_per_sec = 1'000.0;

    /** Total requests to generate. */
    std::size_t count = 100;

    /** Deadline slack for High-class requests: deadline = arrival +
     *  slack (simulated us). */
    double deadline_slack_us = 100'000.0;

    /** Deadline slack for Low-class requests. */
    double low_deadline_slack_us = 200'000.0;

    /** Fraction of arrivals in RequestClass::Low. */
    double low_fraction = 0.25;

    std::uint64_t seed = 7;
};

/**
 * Generate @p cfg.count arrivals starting at @p start_us, cycling
 * input indices through [0, dataset_size). Sorted by arrival time by
 * construction; ids are assigned 0..count-1 in arrival order.
 */
std::vector<Request> generateOpenLoopArrivals(
    const ArrivalConfig& cfg, double start_us,
    std::size_t dataset_size);

} // namespace serve

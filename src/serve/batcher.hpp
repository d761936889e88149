/**
 * @file
 * Deadline-aware dynamic batcher with per-class FIFO queues.
 *
 * The Server and the Fleet each own one Batcher. Admitted requests
 * wait in one of two FIFO deques (High before Low at formation
 * time); a batch forms when either the oldest queued request has
 * waited a full batching window or the backlog already covers
 * max_batch. The window shrinks
 * under brown-out (BrownoutLevel::ShrunkWindow) to trade batching
 * efficiency for latency. Expired requests are cancelled at
 * formation time instead of wasting a batch slot.
 *
 * Ordering is total and deterministic: within a class, FIFO by
 * request id; across classes, High drains first.
 */
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "serve/admission.hpp"
#include "serve/request.hpp"

namespace serve {

struct BatchPolicy
{
    /** Most requests per dispatched batch. */
    std::size_t max_batch = 8;

    /** Full batching window (simulated us) at BrownoutLevel::Normal;
     *  the oldest queued request never waits longer before its batch
     *  forms. */
    double window_us = 2'000.0;
};

/** A queued, admitted request plus its retry bookkeeping. */
struct Queued
{
    Request req;
    int attempts = 0;       //!< dispatches so far (retries bump it)
    double enqueue_us = 0.0; //!< last enqueue instant
};

class Batcher
{
public:
    explicit Batcher(BatchPolicy policy = {}) : policy_(policy) {}

    const BatchPolicy& policy() const { return policy_; }

    /** Window multiplier under BrownoutLevel::ShrunkWindow. */
    static constexpr double kShrinkFactor = 0.25;

    /** Effective batching window at @p level. */
    double
    windowUs(BrownoutLevel level) const
    {
        return level >= BrownoutLevel::ShrunkWindow
                   ? policy_.window_us * kShrinkFactor
                   : policy_.window_us;
    }

    /** Append to the back of the class queue. */
    void enqueue(Queued q);

    /** Push to the FRONT of the class queue (failed-batch retry;
     *  call in reverse id order to preserve FIFO). */
    void enqueueFront(Queued q);

    std::size_t
    depth() const
    {
        return high_.size() + low_.size();
    }

    bool empty() const { return high_.empty() && low_.empty(); }

    /**
     * Earliest instant a batch may form, under @p level's window and
     * the retry-backoff gate @p not_before_us.
     *
     * @return the dispatch-ready instant, or a negative value when
     *         nothing is queued.
     */
    double readyAt(BrownoutLevel level, double not_before_us) const;

    /**
     * Pop up to max_batch requests, High first then Low, FIFO within
     * each class. Call expire() first so dead requests do not occupy
     * batch slots.
     */
    std::vector<Queued> form(double now_us);

    /**
     * Remove every queued request whose deadline is already missed
     * at @p now_us.
     *
     * @return the expired requests (for timeout accounting), in id
     *         order.
     */
    std::vector<Queued> expire(double now_us);

    /** Non-destructive copy of every queued request, High first then
     *  Low, FIFO within each class (drain order). The durability
     *  layer captures this into fleet checkpoints. */
    std::vector<Queued> snapshot() const;

private:
    BatchPolicy policy_;
    std::deque<Queued> high_;
    std::deque<Queued> low_;
};

} // namespace serve

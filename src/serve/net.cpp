/** @file Deterministic fleet network model (DESIGN.md section 4.12). */
#include "serve/net.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** @name Exponential backoff ladder (both ships and retransmits):
 *  the k-th wait is min(kRetryBackoffUs * kBackoffFactor^k,
 *  kMaxBackoffUs). @{ */
constexpr double kRetryBackoffUs = 50.0;
constexpr double kBackoffFactor = 2.0;
constexpr double kMaxBackoffUs = 5'000.0;
/** @} */

/** Pipeline chunks for the initial parameter broadcast. */
constexpr std::size_t kBroadcastChunks = 8;

/** The wait after one that lasted @p backoff_us. */
double
nextBackoffUs(double backoff_us)
{
    return std::min(backoff_us * kBackoffFactor, kMaxBackoffUs);
}

} // namespace

NetworkModel::NetworkModel(NetConfig cfg, obs::Tracer* tracer,
                           obs::MetricsRegistry* metrics)
    : cfg_(std::move(cfg)), tracer_(tracer), metrics_(metrics)
{
    if (enabled())
        inj_.emplace(cfg_.faults);
}

const gpusim::FaultLog&
NetworkModel::faultLog() const
{
    static const gpusim::FaultLog kEmpty;
    return inj_ ? inj_->injected() : kEmpty;
}

void
NetworkModel::count(const char* name, std::uint64_t n)
{
    if (metrics_ != nullptr)
        metrics_->counter(std::string("net.") + name).add(n);
}

void
NetworkModel::netInstant(const char* name, double ts_us,
                         std::int64_t ctx, double a0, double a1)
{
    if (tracer_ != nullptr)
        tracer_->instant(obs::kLaneNet, "net", name, ts_us, ctx, a0,
                         a1);
}

std::vector<std::size_t>
NetworkModel::pathOf(std::size_t a, std::size_t b) const
{
    if (a == b || a >= cfg_.topology.numDevices() ||
        b >= cfg_.topology.numDevices())
        return {};
    if (cfg_.topology.link(a, b) != nullptr)
        return {a, b};
    return cfg_.topology.route(a, b);
}

bool
NetworkModel::pathUp(std::size_t a, std::size_t b, double now_us)
{
    const std::vector<std::size_t> path = pathOf(a, b);
    if (path.empty())
        return false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (inj_->linkDown(path[i], path[i + 1], now_us))
            return false;
    return true;
}

double
NetworkModel::pathUpAtUs(std::size_t a, std::size_t b, double now_us)
{
    const std::vector<std::size_t> path = pathOf(a, b);
    if (path.empty())
        return kInf;
    // Hops heal independently; iterate to the fixed point where no
    // hop is down at t (each pass only moves t forward, bounded by
    // the number of scheduled windows).
    double t = now_us;
    const std::size_t passes = cfg_.faults.link_faults.size() + 1;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        double next = t;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const double up =
                inj_->linkUpAtUs(path[i], path[i + 1], next);
            if (up == kInf)
                return kInf;
            next = std::max(next, up);
        }
        if (next == t)
            return t;
        t = next;
    }
    return t;
}

double
NetworkModel::transferUs(std::size_t a, std::size_t b,
                         std::uint64_t bytes, double now_us)
{
    const std::vector<std::size_t> path = pathOf(a, b);
    std::uint64_t total_ns = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const gpusim::LinkSpec* hop =
            cfg_.topology.link(path[i], path[i + 1]);
        if (hop == nullptr)
            continue; // unreachable pairs never get here
        const std::uint64_t factor =
            inj_->linkDegradeFactor(path[i], path[i + 1], now_us);
        total_ns += hop->latency_ns +
                    gpusim::ceilDiv(bytes * 1000 * factor,
                                    hop->bytes_per_us);
    }
    return static_cast<double>(total_ns) * 1e-3;
}

double
NetworkModel::scoreUs(std::size_t a, std::size_t b,
                      std::uint64_t bytes) const
{
    if (a == b)
        return 0.0;
    const std::vector<std::size_t> path = pathOf(a, b);
    if (path.empty())
        return kInf;
    std::uint64_t total_ns = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const gpusim::LinkSpec* hop =
            cfg_.topology.link(path[i], path[i + 1]);
        if (hop == nullptr)
            continue;
        total_ns += hop->latency_ns +
                    gpusim::ceilDiv(bytes * 1000, hop->bytes_per_us);
    }
    return static_cast<double>(total_ns) * 1e-3;
}

bool
NetworkModel::drawPathLoss(const std::vector<std::size_t>& path)
{
    // Draw every hop (stable draw count) rather than short-circuit,
    // so the dedicated stream's position is a function of the
    // message sequence alone.
    bool lost = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (inj_->loseLinkMessage(path[i], path[i + 1]))
            lost = true;
    return lost;
}

NetworkModel::SendOutcome
NetworkModel::send(std::size_t a, std::size_t b, std::uint64_t bytes,
                   double now_us, const char* what)
{
    SendOutcome out;
    ++stats_.messages;
    count("messages");
    const std::vector<std::size_t> path = pathOf(a, b);
    bool down = path.empty();
    for (std::size_t i = 0; !down && i + 1 < path.size(); ++i)
        down = inj_->linkDown(path[i], path[i + 1], now_us);
    if (down) {
        ++stats_.sends_blocked;
        count("sends_blocked");
        netInstant("send_blocked", now_us,
                   static_cast<std::int64_t>(b),
                   static_cast<double>(a));
        out.blocked = true;
        return out;
    }
    if (drawPathLoss(path)) {
        ++stats_.messages_lost;
        count("messages_lost");
        netInstant("msg_lost", now_us, static_cast<std::int64_t>(b),
                   static_cast<double>(a),
                   static_cast<double>(bytes));
        return out;
    }
    out.delivered = true;
    out.delay_us = transferUs(a, b, bytes, now_us);
    stats_.bytes_on_wire += bytes;
    count("bytes_on_wire", bytes);
    if (tracer_ != nullptr)
        tracer_->complete(obs::kLaneNet, "net", what, now_us,
                          out.delay_us, static_cast<std::int64_t>(b),
                          static_cast<double>(a),
                          static_cast<double>(bytes));
    return out;
}

double
NetworkModel::reliableDeliveryAtUs(std::size_t a, std::size_t b,
                                   std::uint64_t bytes,
                                   double send_us)
{
    double t = send_us;
    double backoff = kRetryBackoffUs;
    for (int attempt = 0; attempt <= cfg_.max_retransmits;
         ++attempt) {
        t = std::max(t, pathUpAtUs(a, b, t));
        if (t == kInf)
            return kInf;
        ++stats_.messages;
        count("messages");
        if (attempt > 0) {
            ++stats_.retransmits;
            count("retransmits");
        }
        const std::vector<std::size_t> path = pathOf(a, b);
        if (!drawPathLoss(path)) {
            stats_.bytes_on_wire += bytes;
            count("bytes_on_wire", bytes);
            return t + transferUs(a, b, bytes, t);
        }
        ++stats_.messages_lost;
        count("messages_lost");
        t += backoff;
        backoff = nextBackoffUs(backoff);
    }
    return kInf;
}

NetworkModel::ShipOutcome
NetworkModel::ship(std::size_t a, std::size_t b, std::uint64_t bytes,
                   double now_us)
{
    ShipOutcome out;
    if (bytes == 0) {
        out.ok = true;
        out.done_at_us = now_us;
        return out;
    }
    const std::uint64_t chunk_size =
        std::max<std::uint64_t>(cfg_.ship_chunk_bytes, 1);
    double t = now_us;
    std::uint64_t offset = 0;
    while (offset < bytes) {
        const std::uint64_t this_chunk =
            std::min(chunk_size, bytes - offset);
        double backoff = kRetryBackoffUs;
        int attempt = 0;
        for (;; ++attempt) {
            const double up = pathUpAtUs(a, b, t);
            if (up == kInf || attempt > cfg_.max_chunk_retries) {
                ++stats_.ships_failed;
                count("ships_failed");
                netInstant("ship_failed", t,
                           static_cast<std::int64_t>(b),
                           static_cast<double>(offset),
                           static_cast<double>(bytes));
                out.done_at_us = t;
                return out;
            }
            t = std::max(t, up);
            const std::vector<std::size_t> path = pathOf(a, b);
            if (!drawPathLoss(path)) {
                t += transferUs(a, b, this_chunk, t);
                ++out.chunks;
                ++stats_.ship_chunks;
                count("ship_chunks");
                stats_.ship_bytes += this_chunk;
                count("ship_bytes", this_chunk);
                stats_.bytes_on_wire += this_chunk;
                count("bytes_on_wire", this_chunk);
                break;
            }
            // Lost: resume this chunk from its offset after the
            // backoff; chunks already delivered stay delivered.
            ++out.retries;
            ++stats_.ship_retries;
            count("ship_retries");
            t += backoff;
            backoff = nextBackoffUs(backoff);
        }
        offset += this_chunk;
    }
    out.ok = true;
    out.bytes = offset;
    out.done_at_us = t;
    const std::uint64_t whole_us = static_cast<std::uint64_t>(
        std::max(0.0, t - now_us));
    stats_.ship_us_total += whole_us;
    count("ship_us_total", whole_us);
    if (tracer_ != nullptr)
        tracer_->complete(obs::kLaneNet, "net", "ship", now_us,
                          t - now_us, static_cast<std::int64_t>(b),
                          static_cast<double>(bytes),
                          static_cast<double>(out.retries));
    if (metrics_ != nullptr)
        metrics_->histogram("net.ship_us").observe(t - now_us);
    return out;
}

common::Result<double>
NetworkModel::paramBroadcastUs(std::uint64_t bytes, double now_us)
{
    // A tree hop between two nodes that share no link or route is
    // relayed by the controller, so a star topology broadcasts too.
    common::Result<gpusim::CollectiveCost> cost = gpusim::broadcastCost(
        cfg_.topology.withHubRoutes(cfg_.controller_node), bytes,
        cfg_.topology.numDevices(), kBroadcastChunks);
    if (!cost.ok())
        return cost.takeStatus();
    const double dur_us = cost.value().totalUs();
    ++stats_.param_broadcasts;
    count("param_broadcasts");
    stats_.bytes_on_wire += cost.value().bytes_on_wire;
    count("bytes_on_wire", cost.value().bytes_on_wire);
    if (tracer_ != nullptr)
        tracer_->complete(obs::kLaneNet, "net", "param_broadcast",
                          now_us, dur_us, 0,
                          static_cast<double>(bytes),
                          static_cast<double>(
                              cost.value().bytes_on_wire));
    return dur_us;
}

void
NetworkModel::noteProbeReply(std::size_t replica, double rtt_us,
                             double now_us)
{
    ++stats_.probe_replies;
    count("probe_replies");
    if (metrics_ != nullptr)
        metrics_->histogram("net.probe_rtt_us").observe(rtt_us);
    netInstant("probe_reply", now_us,
               static_cast<std::int64_t>(replica), rtt_us);
}

void
NetworkModel::noteTimeout(std::uint64_t req_id, double now_us)
{
    ++stats_.timeouts;
    count("timeouts");
    netInstant("timeout", now_us,
               static_cast<std::int64_t>(req_id));
}

void
NetworkModel::noteFence(std::uint64_t req_id, int epoch,
                        double now_us)
{
    ++stats_.fences;
    count("fences");
    netInstant("fence", now_us, static_cast<std::int64_t>(req_id),
               static_cast<double>(epoch));
}

void
NetworkModel::noteFenceDrop(std::uint64_t req_id, int epoch,
                            double now_us)
{
    ++stats_.fence_drops;
    count("fence_drops");
    netInstant("fence_drop", now_us,
               static_cast<std::int64_t>(req_id),
               static_cast<double>(epoch));
}

void
NetworkModel::noteUnreachableSkip()
{
    ++stats_.unreachable_skips;
    count("unreachable_skips");
}

} // namespace serve

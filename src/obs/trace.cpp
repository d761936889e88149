/** @file Sharded ring-buffer tracer + canonical ordering. */
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/json.hpp"

namespace obs {

namespace {

/** Monotonic tracer ids so a thread-local cache entry can never
 *  alias a destroyed tracer that was reallocated at the same
 *  address. */
std::atomic<std::uint64_t> g_next_tracer_id{1};

/** Per-thread cache of the last (tracer, shard) pairing. One entry
 *  suffices: a thread emits into one tracer at a time, and a miss
 *  only costs the registration lock. */
struct ShardCache
{
    std::uint64_t tracer_id = 0;
    void* shard = nullptr;
};
thread_local ShardCache t_shard_cache;

} // namespace

const char*
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Complete:
        return "span";
      case EventKind::Instant:
        return "instant";
      case EventKind::Counter:
        return "counter";
    }
    return "?";
}

std::string
laneName(std::int32_t lane)
{
    switch (lane) {
      case kLaneDevice:
        return "device";
      case kLaneHost:
        return "host";
      case kLaneRecovery:
        return "recovery";
      case kLaneServe:
        return "serve";
      case kLaneFleet:
        return "fleet";
      case kLaneDurable:
        return "durable";
      case kLaneComm:
        return "comm";
      case kLaneNet:
        return "net";
      default:
        if (lane >= kLaneReplicaBase)
            return "replica " + std::to_string(lane -
                                               kLaneReplicaBase);
        return "vpp " + std::to_string(lane);
    }
}

bool
canonicalLess(const TraceEvent& a, const TraceEvent& b)
{
    if (a.ts_us != b.ts_us)
        return a.ts_us < b.ts_us;
    if (a.lane != b.lane)
        return a.lane < b.lane;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (const int c = std::strcmp(a.cat, b.cat); c != 0)
        return c < 0;
    if (const int c = std::strcmp(a.name, b.name); c != 0)
        return c < 0;
    if (a.ctx != b.ctx)
        return a.ctx < b.ctx;
    if (a.dur_us != b.dur_us)
        return a.dur_us < b.dur_us;
    if (a.arg0 != b.arg0)
        return a.arg0 < b.arg0;
    return a.arg1 < b.arg1;
}

Tracer::Tracer(std::size_t shard_capacity)
    : capacity_(shard_capacity == 0 ? 1 : shard_capacity),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed))
{
}

Tracer::~Tracer() = default;

Tracer::Shard&
Tracer::shard()
{
    ShardCache& cache = t_shard_cache;
    if (cache.tracer_id == id_)
        return *static_cast<Shard*>(cache.shard);
    std::lock_guard<std::mutex> lock(register_mu_);
    auto owned = std::make_unique<Shard>();
    owned->ring.resize(capacity_);
    shards_.push_back(std::move(owned));
    Shard* s = shards_.back().get();
    cache.tracer_id = id_;
    cache.shard = s;
    return *s;
}

std::uint64_t
Tracer::recorded() const
{
    std::lock_guard<std::mutex> lock(register_mu_);
    std::uint64_t total = 0;
    for (const auto& s : shards_)
        total += s->count;
    return total;
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(register_mu_);
    std::uint64_t total = 0;
    for (const auto& s : shards_)
        if (s->count > capacity_)
            total += s->count - capacity_;
    return total;
}

std::vector<TraceEvent>
Tracer::canonical() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(register_mu_);
        for (const auto& s : shards_) {
            const std::uint64_t kept =
                std::min<std::uint64_t>(s->count, capacity_);
            for (std::uint64_t i = 0; i < kept; ++i)
                out.push_back(
                    s->ring[static_cast<std::size_t>(i)]);
        }
    }
    std::sort(out.begin(), out.end(), canonicalLess);
    return out;
}

std::string
formatEvent(const TraceEvent& e)
{
    std::string line;
    line.reserve(96);
    appendJsonDouble(line, e.ts_us);
    line += ' ';
    line += laneName(e.lane);
    line += ' ';
    line += eventKindName(e.kind);
    line += ' ';
    line += e.cat;
    line += '.';
    line += e.name;
    line += " ctx=";
    line += std::to_string(e.ctx);
    line += " dur=";
    appendJsonDouble(line, e.dur_us);
    line += " a0=";
    appendJsonDouble(line, e.arg0);
    line += " a1=";
    appendJsonDouble(line, e.arg1);
    return line;
}

std::string
Tracer::canonicalText() const
{
    std::string out;
    for (const TraceEvent& e : canonical()) {
        out += formatEvent(e);
        out += '\n';
    }
    return out;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(register_mu_);
    for (auto& s : shards_)
        s->count = 0;
}

} // namespace obs

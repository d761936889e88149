/** @file Serving durability wire formats (journal + fleet state). */
#include "serve/durability.hpp"

#include <iterator>

#include "common/wire.hpp"

namespace serve {

namespace {

using common::putF64;
using common::putU32;
using common::putU64;

constexpr const char* kContext = "malformed journal/state record";
constexpr std::size_t kAdmitBytes = 8 + 1 + 1 + 8 + 8 + 8;
constexpr std::size_t kOutcomeBytes = 8 + 1 + 1 + 4 + 8;
constexpr std::size_t kCompletedBytes = 8 + 4 + 8;
constexpr std::size_t kPendingBytes = 8 + 1 + 8 + 8 + 8;

/** FleetCounters in checkpoint wire order, read by both directions.
 *  Append-only: a new counter goes at the end with a version bump. */
constexpr std::uint64_t FleetCounters::*kCounterWire[] = {
    &FleetCounters::arrivals,       &FleetCounters::admitted,
    &FleetCounters::rejected_queue_full,
    &FleetCounters::rejected_infeasible,
    &FleetCounters::shed,           &FleetCounters::completed,
    &FleetCounters::timed_out,      &FleetCounters::failed,
    &FleetCounters::admitted_high,  &FleetCounters::completed_high,
    &FleetCounters::timed_out_high, &FleetCounters::failed_high,
    &FleetCounters::routed,         &FleetCounters::failed_over,
    &FleetCounters::hedge_cancelled, &FleetCounters::lost,
    &FleetCounters::hedges,         &FleetCounters::probes,
    &FleetCounters::suspicions,     &FleetCounters::device_losses,
    &FleetCounters::standby_joins,  &FleetCounters::expired_in_queue,
    &FleetCounters::drained_no_replica, &FleetCounters::fenced,
};
constexpr std::size_t kNumCounterFields = std::size(kCounterWire);

/** Read a request class byte; anything but High or Low fails. */
RequestClass
readClass(common::WireReader& r, const char* field)
{
    const unsigned cls = r.u8(field);
    r.check(cls <= 1, field, ": ", cls);
    return static_cast<RequestClass>(cls);
}

} // namespace

std::vector<std::uint8_t>
encodeAdmit(const JournalAdmit& a)
{
    std::vector<std::uint8_t> out;
    out.reserve(kAdmitBytes);
    putU64(out, a.id);
    out.push_back(static_cast<std::uint8_t>(a.cls));
    out.push_back(static_cast<std::uint8_t>(a.decision));
    putU64(out, a.input_index);
    putF64(out, a.arrival_us);
    putF64(out, a.deadline_us);
    return out;
}

common::Result<JournalAdmit>
decodeAdmit(const std::vector<std::uint8_t>& payload)
{
    common::WireReader r(payload, kContext);
    JournalAdmit a;
    a.id = r.u64("admit id");
    a.cls = readClass(r, "admit request class");
    const unsigned decision = r.u8("admit decision");
    r.check(decision <= static_cast<unsigned>(
                            AdmissionController::Decision::Shed),
            "admit decision: ", decision);
    a.decision = static_cast<AdmissionController::Decision>(decision);
    a.input_index = r.u64("admit input index");
    a.arrival_us = r.f64("admit arrival");
    a.deadline_us = r.f64("admit deadline");
    r.end();
    if (!r.ok())
        return r.takeStatus();
    return a;
}

std::vector<std::uint8_t>
encodeOutcome(const JournalOutcome& o)
{
    std::vector<std::uint8_t> out;
    out.reserve(kOutcomeBytes);
    putU64(out, o.id);
    out.push_back(static_cast<std::uint8_t>(o.outcome));
    out.push_back(static_cast<std::uint8_t>(o.cls));
    putU32(out, o.response_bits);
    putF64(out, o.latency_us);
    return out;
}

common::Result<JournalOutcome>
decodeOutcome(const std::vector<std::uint8_t>& payload)
{
    common::WireReader r(payload, kContext);
    JournalOutcome o;
    o.id = r.u64("outcome id");
    const unsigned outcome = r.u8("outcome value");
    r.check(outcome <= static_cast<unsigned>(Outcome::Shed),
            "outcome value: ", outcome);
    o.outcome = static_cast<Outcome>(outcome);
    o.cls = readClass(r, "outcome request class");
    o.response_bits = r.u32("outcome response");
    o.latency_us = r.f64("outcome latency");
    r.end();
    if (!r.ok())
        return r.takeStatus();
    return o;
}

std::vector<std::uint8_t>
serializeFleetState(const FleetDurableState& st)
{
    std::vector<std::uint8_t> out = common::beginImage(
        kFleetStateMagic, kFleetStateVersion,
        8 + 8 + 8 * kNumCounterFields + 8 +
            kCompletedBytes * st.completed.size() + 8 +
            kPendingBytes * st.pending.size() + 8 +
            st.params_blob.size());
    putU64(out, st.wal_first_seq);
    putF64(out, st.now_us);
    for (const auto field : kCounterWire)
        putU64(out, st.counters.*field);
    putU64(out, st.completed.size());
    for (const auto& e : st.completed) {
        putU64(out, e.id);
        putU32(out, e.response_bits);
        putF64(out, e.latency_us);
    }
    putU64(out, st.pending.size());
    for (const Request& r : st.pending) {
        putU64(out, r.id);
        out.push_back(static_cast<std::uint8_t>(r.cls));
        putU64(out, static_cast<std::uint64_t>(r.input_index));
        putF64(out, r.arrival_us);
        putF64(out, r.deadline_us);
    }
    putU64(out, st.params_blob.size());
    out.insert(out.end(), st.params_blob.begin(),
               st.params_blob.end());
    common::sealImage(out);
    return out;
}

common::Result<FleetDurableState>
parseFleetState(const std::uint8_t* data, std::size_t size)
{
    common::WireReader r(data, size, kContext);
    r.openImage(kFleetStateMagic, kFleetStateVersion);
    FleetDurableState st;
    st.wal_first_seq = r.u64("wal_first_seq");
    st.now_us = r.f64("now");
    for (const auto field : kCounterWire)
        st.counters.*field = r.u64("counters");
    st.completed.resize(r.count("completed count", kCompletedBytes,
                                kFleetStateMaxEntries));
    for (auto& e : st.completed) {
        e.id = r.u64("completed id");
        e.response_bits = r.u32("completed response");
        e.latency_us = r.f64("completed latency");
    }
    st.pending.resize(r.count("pending count", kPendingBytes,
                              kFleetStateMaxEntries));
    for (Request& q : st.pending) {
        q.id = r.u64("pending id");
        q.cls = readClass(r, "pending request class");
        q.input_index = static_cast<std::size_t>(r.u64("pending input"));
        q.arrival_us = r.f64("pending arrival");
        q.deadline_us = r.f64("pending deadline");
    }
    const auto blob = r.bytes(r.count("params length", 1), "params");
    st.params_blob.assign(blob.begin(), blob.end());
    r.closeImage();
    if (!r.ok())
        return r.takeStatus();
    return st;
}

common::Result<FleetDurableState>
parseFleetState(const std::vector<std::uint8_t>& bytes)
{
    return parseFleetState(bytes.data(), bytes.size());
}

} // namespace serve

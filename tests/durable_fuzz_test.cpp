/**
 * @file
 * Fuzz and regression suite for the durability wire formats: the
 * checkpoint manifest, the WAL record framing, and the fleet state
 * payload plus its journal records. Recovery parses these off a
 * store that tears and rots crashed tails, so every parser must
 * reject corruption with a structured InvalidArgument (or, for the
 * WAL, stop at the torn tail) and never crash on arbitrary bytes.
 * Mirrors the checkpoint_fuzz_test pattern: exhaustive truncation
 * and single-bit-flip sweeps, promoted regressions, seeded random
 * fuzzing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "durable/manifest.hpp"
#include "common/wire.hpp"
#include "durable/wal.hpp"
#include "serve/durability.hpp"
#include "train/checkpoint_io.hpp"

namespace {

std::vector<std::uint8_t>
sampleManifestImage()
{
    durable::Manifest m;
    m.generation = 7;
    m.checkpoint_file = "fleet/ckpt.7";
    m.checkpoint_bytes = 4096;
    m.checkpoint_digest = 0x0123456789ABCDEFull;
    m.wal_file = "fleet/wal.7";
    return durable::serializeManifest(m);
}

serve::FleetDurableState
sampleFleetState()
{
    serve::FleetDurableState st;
    st.wal_first_seq = 11;
    st.now_us = 1.5e6;
    st.counters.arrivals = 9;
    st.counters.admitted = 8;
    st.counters.completed = 6;
    st.counters.routed = 6;
    st.counters.admitted_high = 5;
    st.counters.completed_high = 5;
    st.completed = {{1, 0x3F800000u, 1000.0},
                    {2, 0x40000000u, 2000.0}};
    serve::Request pend;
    pend.id = 3;
    pend.cls = serve::RequestClass::Low;
    pend.input_index = 4;
    pend.arrival_us = 100.0;
    pend.deadline_us = 1.0e9;
    st.pending = {pend};
    st.params_blob = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4};
    return st;
}

std::vector<std::uint8_t>
sampleWalImage(std::size_t records)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < records; ++i) {
        std::vector<std::uint8_t> payload(5 + i,
                                          static_cast<std::uint8_t>(i));
        const auto frame =
            durable::encodeWalRecord(1, i + 1, payload);
        out.insert(out.end(), frame.begin(), frame.end());
    }
    return out;
}

void
expectMalformedManifest(const std::vector<std::uint8_t>& img,
                        const std::string& what)
{
    auto r = durable::parseManifest(img);
    ASSERT_FALSE(r.ok()) << what << ": accepted a malformed manifest";
    EXPECT_EQ(r.status().code(), common::ErrorCode::InvalidArgument)
        << what;
    EXPECT_NE(r.status().toString().find("manifest"),
              std::string::npos)
        << what << ": error must name the decoder";
}

void
expectMalformedState(const std::vector<std::uint8_t>& img,
                     const std::string& what)
{
    auto r = serve::parseFleetState(img);
    ASSERT_FALSE(r.ok()) << what
                         << ": accepted a malformed fleet state";
    EXPECT_EQ(r.status().code(), common::ErrorCode::InvalidArgument)
        << what;
}

TEST(ManifestFuzz, RoundTripsBitwise)
{
    auto r = durable::parseManifest(sampleManifestImage());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().generation, 7u);
    EXPECT_EQ(r.value().checkpoint_file, "fleet/ckpt.7");
    EXPECT_EQ(r.value().checkpoint_bytes, 4096u);
    EXPECT_EQ(r.value().checkpoint_digest, 0x0123456789ABCDEFull);
    EXPECT_EQ(r.value().wal_file, "fleet/wal.7");
}

TEST(ManifestFuzz, EveryTruncationIsRejected)
{
    const auto img = sampleManifestImage();
    for (std::size_t len = 0; len < img.size(); ++len)
        expectMalformedManifest(
            {img.begin(), img.begin() + static_cast<long>(len)},
            "truncated to " + std::to_string(len));
}

TEST(ManifestFuzz, EverySingleBitFlipIsRejected)
{
    const auto img = sampleManifestImage();
    for (std::size_t byte = 0; byte < img.size(); ++byte)
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = img;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            expectMalformedManifest(mutant,
                                    "bit " + std::to_string(bit) +
                                        " of byte " +
                                        std::to_string(byte));
        }
}

TEST(ManifestFuzz, PromotedRegressions)
{
    const auto good = sampleManifestImage();
    auto expectNames = [&](std::vector<std::uint8_t> img,
                           const char* needle) {
        auto r = durable::parseManifest(img);
        ASSERT_FALSE(r.ok()) << needle;
        EXPECT_NE(r.status().toString().find(needle),
                  std::string::npos)
            << r.status().toString();
    };
    {
        auto m = good;
        m[0] = 'X';
        expectNames(m, "magic");
    }
    {
        auto m = good;
        m[4] = 0xFF;
        expectNames(m, "version");
    }
    {
        // Generation zero is reserved "no state"; it must never
        // round-trip through a manifest.
        auto m = good;
        for (std::size_t i = 8; i < 16; ++i)
            m[i] = 0;
        expectNames(m, "generation");
    }
    {
        // checkpoint_file length zeroed: empty names are invalid.
        auto m = good;
        for (std::size_t i = 16; i < 20; ++i)
            m[i] = 0;
        expectNames(m, "length out of range");
    }
    {
        // Payload-only corruption the field checks cannot see: the
        // trailing digest must catch it.
        auto m = good;
        m[21] ^= 0x01; // inside checkpoint_file's name bytes
        expectNames(m, "digest");
    }
    expectMalformedManifest({}, "empty image");
}

TEST(WalFuzz, TruncationKeepsExactlyTheCompleteRecordPrefix)
{
    const std::size_t n = 3;
    const auto img = sampleWalImage(n);
    std::vector<std::size_t> boundaries = {0};
    {
        std::size_t off = 0;
        for (std::size_t i = 0; i < n; ++i) {
            off += durable::kWalHeaderBytes + (5 + i) +
                   durable::kWalDigestBytes;
            boundaries.push_back(off);
        }
    }
    for (std::size_t len = 0; len <= img.size(); ++len) {
        const auto rr = durable::readWal(img.data(), len, 1);
        std::size_t complete = 0;
        for (std::size_t b : boundaries)
            if (b <= len && b != 0)
                ++complete;
        EXPECT_EQ(rr.records.size(), complete)
            << "truncated to " << len;
        const bool at_boundary =
            std::find(boundaries.begin(), boundaries.end(), len) !=
            boundaries.end();
        EXPECT_EQ(rr.torn, !at_boundary) << "truncated to " << len;
        for (std::size_t i = 0; i < rr.records.size(); ++i)
            EXPECT_EQ(rr.records[i].seq, i + 1);
    }
}

TEST(WalFuzz, EverySingleBitFlipTearsTheTail)
{
    const auto img = sampleWalImage(3);
    for (std::size_t byte = 0; byte < img.size(); ++byte)
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = img;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            const auto rr = durable::readWal(mutant, 1);
            // A flip anywhere invalidates the record containing it
            // (length, type, seq, and payload are all under the
            // per-record digest), so the valid prefix must shrink
            // and the tail must report torn.
            EXPECT_TRUE(rr.torn)
                << "bit " << bit << " of byte " << byte;
            EXPECT_LT(rr.records.size(), 3u)
                << "bit " << bit << " of byte " << byte;
            EXPECT_FALSE(rr.tail_error.empty());
        }
}

TEST(WalFuzz, OversizedLengthIsCorruptionNotAllocation)
{
    std::vector<std::uint8_t> img(durable::kWalHeaderBytes +
                                  durable::kWalDigestBytes);
    // payload_len = 0xFFFFFFFF: must be rejected by the payload cap
    // before any attempt to read (or allocate) 4 GiB.
    img[0] = img[1] = img[2] = img[3] = 0xFF;
    const auto rr = durable::readWal(img, 1);
    EXPECT_TRUE(rr.records.empty());
    EXPECT_TRUE(rr.torn);
    EXPECT_NE(rr.tail_error.find("payload"), std::string::npos)
        << rr.tail_error;
}

TEST(FleetStateFuzz, RoundTripsBitwise)
{
    const auto st = sampleFleetState();
    auto r = serve::parseFleetState(serve::serializeFleetState(st));
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const auto& out = r.value();
    EXPECT_EQ(out.wal_first_seq, st.wal_first_seq);
    EXPECT_EQ(out.now_us, st.now_us);
    EXPECT_EQ(out.counters.arrivals, st.counters.arrivals);
    EXPECT_EQ(out.counters.completed_high,
              st.counters.completed_high);
    ASSERT_EQ(out.completed.size(), 2u);
    EXPECT_EQ(out.completed[1].id, 2u);
    EXPECT_EQ(out.completed[1].response_bits, 0x40000000u);
    ASSERT_EQ(out.pending.size(), 1u);
    EXPECT_EQ(out.pending[0].id, 3u);
    EXPECT_EQ(out.pending[0].cls, serve::RequestClass::Low);
    EXPECT_EQ(out.pending[0].input_index, 4u);
    EXPECT_EQ(out.params_blob, st.params_blob);
}

TEST(FleetStateFuzz, EveryTruncationIsRejected)
{
    const auto img = serve::serializeFleetState(sampleFleetState());
    for (std::size_t len = 0; len < img.size(); ++len)
        expectMalformedState(
            {img.begin(), img.begin() + static_cast<long>(len)},
            "truncated to " + std::to_string(len));
}

TEST(FleetStateFuzz, EverySingleBitFlipIsRejected)
{
    const auto img = serve::serializeFleetState(sampleFleetState());
    for (std::size_t byte = 0; byte < img.size(); ++byte)
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = img;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            expectMalformedState(mutant,
                                 "bit " + std::to_string(bit) +
                                     " of byte " +
                                     std::to_string(byte));
        }
}

TEST(FleetStateFuzz, PromotedRegressions)
{
    const auto good = serve::serializeFleetState(sampleFleetState());
    auto expectNames = [&](std::vector<std::uint8_t> img,
                           const char* needle) {
        auto r = serve::parseFleetState(img);
        ASSERT_FALSE(r.ok()) << needle;
        EXPECT_NE(r.status().toString().find(needle),
                  std::string::npos)
            << r.status().toString();
    };
    {
        auto m = good;
        m[0] = 'X';
        expectNames(m, "magic");
    }
    {
        auto m = good;
        m[4] = 0xFF;
        expectNames(m, "version");
    }
    {
        // Completed count inflated to 2^64-1: the entry cap must
        // reject it before the reserve. Offset: magic+version (8) +
        // wal_first_seq (8) + now (8) + 24 counters (192).
        auto m = good;
        for (std::size_t i = 216; i < 224; ++i)
            m[i] = 0xFF;
        expectNames(m, "completed count");
    }
    {
        auto m = good;
        m[224] ^= 0x01; // first completed entry's id
        expectNames(m, "digest");
    }
    expectMalformedState({}, "empty image");
}

TEST(JournalRecordFuzz, AdmitAndOutcomeRoundTrip)
{
    serve::JournalAdmit a;
    a.id = 0xABCDEF0102030405ull;
    a.cls = serve::RequestClass::Low;
    a.decision = serve::AdmissionController::Decision::Shed;
    a.input_index = 99;
    a.arrival_us = 123.5;
    a.deadline_us = 1.0e9;
    auto ra = serve::decodeAdmit(serve::encodeAdmit(a));
    ASSERT_TRUE(ra.ok()) << ra.status().toString();
    EXPECT_EQ(ra.value().id, a.id);
    EXPECT_EQ(ra.value().cls, a.cls);
    EXPECT_EQ(ra.value().decision, a.decision);
    EXPECT_EQ(ra.value().input_index, a.input_index);
    EXPECT_EQ(ra.value().arrival_us, a.arrival_us);
    EXPECT_EQ(ra.value().deadline_us, a.deadline_us);

    serve::JournalOutcome o;
    o.id = 77;
    o.outcome = serve::Outcome::Completed;
    o.cls = serve::RequestClass::High;
    o.response_bits = 0xC0FFEE01u;
    o.latency_us = 4242.0;
    auto ro = serve::decodeOutcome(serve::encodeOutcome(o));
    ASSERT_TRUE(ro.ok()) << ro.status().toString();
    EXPECT_EQ(ro.value().id, o.id);
    EXPECT_EQ(ro.value().outcome, o.outcome);
    EXPECT_EQ(ro.value().cls, o.cls);
    EXPECT_EQ(ro.value().response_bits, o.response_bits);
    EXPECT_EQ(ro.value().latency_us, o.latency_us);
}

TEST(JournalRecordFuzz, BadSizesAndEnumsAreRejected)
{
    const auto admit = serve::encodeAdmit({});
    const auto outcome = serve::encodeOutcome({});
    for (std::size_t len = 0; len < admit.size(); ++len)
        EXPECT_FALSE(serve::decodeAdmit({admit.begin(),
                                         admit.begin() +
                                             static_cast<long>(len)})
                         .ok());
    for (std::size_t len = 0; len < outcome.size(); ++len)
        EXPECT_FALSE(
            serve::decodeOutcome({outcome.begin(),
                                  outcome.begin() +
                                      static_cast<long>(len)})
                .ok());
    {
        auto m = admit;
        m[8] = 2; // request class out of range
        EXPECT_FALSE(serve::decodeAdmit(m).ok());
    }
    {
        auto m = admit;
        m[9] = 4; // decision out of range
        EXPECT_FALSE(serve::decodeAdmit(m).ok());
    }
    {
        auto m = outcome;
        m[8] = 0xFF; // outcome out of range
        EXPECT_FALSE(serve::decodeOutcome(m).ok());
    }
}

TEST(DurableParsersFuzz, SeededRandomFuzzNeverCrashes)
{
    common::Rng rng(4321);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t len = rng.nextBelow(300);
        std::vector<std::uint8_t> blob(len);
        for (auto& b : blob)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        // Random bytes may by cosmic luck parse; the requirement is
        // only that no parser crashes and every rejection is
        // structured.
        if (auto r = durable::parseManifest(blob); !r.ok()) {
            EXPECT_EQ(r.status().code(),
                      common::ErrorCode::InvalidArgument);
        }
        if (auto r = serve::parseFleetState(blob); !r.ok()) {
            EXPECT_EQ(r.status().code(),
                      common::ErrorCode::InvalidArgument);
        }
        (void)serve::decodeAdmit(blob);
        (void)serve::decodeOutcome(blob);
        const auto rr = durable::readWal(blob, 1);
        EXPECT_LE(rr.clean_bytes, blob.size());
    }
}

/**
 * Every durable encoding, pinned by size and FNV-1a 64 digest of its
 * bytes. The round-trip and fuzz cases above still pass when an
 * encoder and its decoder change together; this one does not, so a
 * format change has to be made on purpose. The inputs fill every
 * field: non-integral floats, a -0.0, a completed entry, a pending
 * request of each class and a non-empty params blob.
 */
TEST(DurableFormats, EncodingsArePinned)
{
    train::TrainCheckpoint ckpt;
    ckpt.next_input = 0x0102030405ull;
    ckpt.learning_rate = 0.3f;
    ckpt.weight_decay = -0.0f;
    ckpt.params = {1.5f, -0.0f, 3.25e-3f, -7.75f, 1.0e30f};
    const auto ckpt_bytes = train::serializeCheckpoint(ckpt);

    durable::Manifest m;
    m.generation = 0x1122334455ull;
    m.checkpoint_file = "fleet/ckpt.42";
    m.checkpoint_bytes = ckpt_bytes.size();
    m.checkpoint_digest = common::fnv1a64(ckpt_bytes);
    m.wal_file = "fleet/wal.42";

    serve::FleetDurableState st;
    st.wal_first_seq = 0xA0B0C0D0E0ull;
    st.now_us = 1234.5625;
    serve::FleetCounters& c = st.counters;
    c.arrivals = 1, c.admitted = 2, c.rejected_queue_full = 3;
    c.rejected_infeasible = 4, c.shed = 5, c.completed = 6;
    c.timed_out = 7, c.failed = 8, c.admitted_high = 9;
    c.completed_high = 10, c.timed_out_high = 11, c.failed_high = 12;
    c.routed = 13, c.failed_over = 14, c.hedge_cancelled = 15;
    c.lost = 16, c.hedges = 17, c.probes = 18, c.suspicions = 19;
    c.device_losses = 20, c.standby_joins = 21;
    c.expired_in_queue = 22, c.drained_no_replica = 23;
    c.fenced = 24;
    st.completed = {{31, 0x3F800000u, 1000.25},
                    {32, 0x80000000u, -0.0}};
    serve::Request high;
    high.id = 33;
    high.cls = serve::RequestClass::High;
    high.input_index = 5;
    high.arrival_us = 100.125;
    high.deadline_us = 2.5e6;
    serve::Request low = high;
    low.id = 34;
    low.cls = serve::RequestClass::Low;
    low.input_index = 6;
    low.deadline_us = -0.0;
    st.pending = {high, low};
    st.params_blob = ckpt_bytes;

    serve::JournalAdmit a;
    a.id = 0xABCDEF0102030405ull;
    a.cls = serve::RequestClass::Low;
    a.decision = serve::AdmissionController::Decision::Shed;
    a.input_index = 99;
    a.arrival_us = 123.5;
    a.deadline_us = -0.0;

    serve::JournalOutcome o;
    o.id = 77;
    o.outcome = serve::Outcome::TimedOut;
    o.cls = serve::RequestClass::High;
    o.response_bits = 0xC0FFEE01u;
    o.latency_us = 4242.125;

    struct Pin
    {
        const char* what;
        std::vector<std::uint8_t> bytes;
        std::size_t size;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"checkpoint", ckpt_bytes, 60, 0x96B1A155A99A5B78ull},
        {"manifest", durable::serializeManifest(m), 73,
         0x73081698982C6EE4ull},
        {"fleet state", serve::serializeFleetState(st), 414,
         0xA0804B420A6826D9ull},
        {"admit", serve::encodeAdmit(a), 34, 0x82202BE7679A91FAull},
        {"outcome", serve::encodeOutcome(o), 22, 0x549BB1FA93F463F9ull},
        {"wal record",
         durable::encodeWalRecord(serve::kJournalOutcomeType, 9,
                                  serve::encodeOutcome(o)),
         46, 0x0A61ED860FEFA1E0ull},
    };
    for (const Pin& pin : pins) {
        EXPECT_EQ(pin.bytes.size(), pin.size) << pin.what;
        EXPECT_EQ(common::fnv1a64(pin.bytes), pin.digest)
            << pin.what << ": 0x" << std::hex
            << common::fnv1a64(pin.bytes);
    }
}

} // namespace

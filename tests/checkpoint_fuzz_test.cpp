/**
 * @file
 * Fuzz and regression suite for the checkpoint wire format. The
 * fleet replicates parameters between replicas through serialized
 * checkpoint blobs, so a corrupted or truncated blob must never
 * crash, hang, or silently restore garbage: every malformed input
 * has to come back as a structured InvalidArgument Status. Mirrors
 * the decoder_fuzz_test pattern: seeded random fuzzing plus a
 * promoted-regression list of inputs that once mattered.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/rvnn.hpp"
#include "train/checkpoint_io.hpp"
#include "train/harness.hpp"

namespace {

train::TrainCheckpoint
sampleCheckpoint(std::size_t params)
{
    train::TrainCheckpoint ckpt;
    ckpt.next_input = 17;
    ckpt.learning_rate = 0.25f;
    ckpt.weight_decay = 0.0625f;
    common::Rng rng(99);
    ckpt.params.reserve(params);
    for (std::size_t i = 0; i < params; ++i)
        ckpt.params.push_back(
            static_cast<float>(rng.nextGaussian()));
    return ckpt;
}

void
expectMalformed(const std::vector<std::uint8_t>& blob,
                const std::string& what)
{
    auto r = train::deserializeCheckpoint(blob);
    ASSERT_FALSE(r.ok()) << what << ": accepted a malformed blob";
    EXPECT_EQ(r.status().code(), common::ErrorCode::InvalidArgument)
        << what;
    EXPECT_NE(r.status().toString().find("checkpoint blob"),
              std::string::npos)
        << what << ": error must name the decoder";
}

TEST(CheckpointBlob, RoundTripsBitwise)
{
    const auto ckpt = sampleCheckpoint(1000);
    const auto blob = train::serializeCheckpoint(ckpt);
    auto r = train::deserializeCheckpoint(blob);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const auto& out = r.value();
    EXPECT_EQ(out.next_input, ckpt.next_input);
    EXPECT_EQ(std::memcmp(&out.learning_rate, &ckpt.learning_rate,
                          sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(&out.weight_decay, &ckpt.weight_decay,
                          sizeof(float)),
              0);
    ASSERT_EQ(out.params.size(), ckpt.params.size());
    EXPECT_EQ(std::memcmp(out.params.data(), ckpt.params.data(),
                          ckpt.params.size() * sizeof(float)),
              0)
        << "parameter payload must survive bitwise";
}

TEST(CheckpointBlob, EmptyParamsRoundTrip)
{
    const auto blob =
        train::serializeCheckpoint(sampleCheckpoint(0));
    auto r = train::deserializeCheckpoint(blob);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().params.empty());
}

TEST(CheckpointBlob, EveryTruncationIsRejected)
{
    const auto blob = train::serializeCheckpoint(sampleCheckpoint(8));
    for (std::size_t len = 0; len < blob.size(); ++len) {
        std::vector<std::uint8_t> cut(blob.begin(),
                                      blob.begin() + len);
        expectMalformed(cut,
                        "truncated to " + std::to_string(len) +
                            " of " + std::to_string(blob.size()));
    }
}

TEST(CheckpointBlob, EverySingleBitFlipIsRejected)
{
    // The trailing digest covers the header and payload, and a flip
    // inside the digest itself breaks the stored value: no single-bit
    // corruption anywhere in the blob may survive.
    const auto blob = train::serializeCheckpoint(sampleCheckpoint(4));
    for (std::size_t byte = 0; byte < blob.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = blob;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            expectMalformed(mutant, "bit " + std::to_string(bit) +
                                        " of byte " +
                                        std::to_string(byte));
        }
    }
}

TEST(CheckpointBlob, PromotedRegressions)
{
    // Inputs that target one validation rule each; every case must
    // fail with a message naming the offending field.
    const auto good = train::serializeCheckpoint(sampleCheckpoint(4));

    auto mutate = [&](std::size_t off, std::uint8_t v) {
        auto m = good;
        m[off] = v;
        return m;
    };

    {
        auto r = train::deserializeCheckpoint(mutate(0, 'X'));
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().toString().find("magic"),
                  std::string::npos);
    }
    {
        auto r = train::deserializeCheckpoint(mutate(4, 0xFF));
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().toString().find("version"),
                  std::string::npos);
    }
    {
        // Param count inflated to a value whose byte length would
        // overflow 64-bit arithmetic: the guarded count check must
        // reject it before any allocation.
        auto m = good;
        for (std::size_t i = 24; i < 32; ++i)
            m[i] = 0xFF;
        auto r = train::deserializeCheckpoint(m);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().toString().find("count"),
                  std::string::npos);
    }
    {
        // Clean payload corruption: digest must catch it.
        auto m = good;
        m[32] ^= 0x01;
        auto r = train::deserializeCheckpoint(m);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().toString().find("digest"),
                  std::string::npos);
    }
    {
        expectMalformed({}, "empty blob");
    }
    {
        std::vector<std::uint8_t> just_magic = {'V', 'P', 'C', 'K'};
        expectMalformed(just_magic, "magic only");
    }
}

TEST(CheckpointBlob, SeededRandomFuzzNeverCrashes)
{
    common::Rng rng(1234);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t len = rng.nextBelow(256);
        std::vector<std::uint8_t> blob(len);
        for (auto& b : blob)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        // Random bytes may by cosmic luck be valid; the requirement
        // is only that the decoder never crashes and every rejection
        // is structured.
        auto r = train::deserializeCheckpoint(blob);
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(),
                      common::ErrorCode::InvalidArgument);
        }
    }
}

TEST(CheckpointBlob, RestoreBlobRejectsCorruptionAndKeepsModel)
{
    gpusim::Device device{gpusim::DeviceSpec{}, 32u << 20};
    common::Rng data_rng{51};
    data::Vocab vocab{300};
    data::Treebank bank{vocab, 10, data_rng, 8.0, 4, 12};
    common::Rng param_rng{52};
    models::RvnnModel model{bank, vocab, 32, device, param_rng};

    const auto before =
        train::captureCheckpoint(model.model(), device, 3);
    const auto blob = train::serializeCheckpoint(before);

    // A corrupted blob must leave the model bitwise untouched.
    auto bad = blob;
    bad[blob.size() / 2] ^= 0x10;
    auto st = train::restoreCheckpointBlob(bad, model.model(), device);
    EXPECT_FALSE(st.ok());
    const auto after =
        train::captureCheckpoint(model.model(), device, 3);
    ASSERT_EQ(after.params.size(), before.params.size());
    EXPECT_EQ(std::memcmp(after.params.data(), before.params.data(),
                          before.params.size() * sizeof(float)),
              0)
        << "failed restore must not partially write parameters";

    // The intact blob restores bitwise.
    st = train::restoreCheckpointBlob(blob, model.model(), device);
    EXPECT_TRUE(st.ok()) << st.toString();
    const auto restored =
        train::captureCheckpoint(model.model(), device, 3);
    EXPECT_EQ(std::memcmp(restored.params.data(),
                          before.params.data(),
                          before.params.size() * sizeof(float)),
              0);
}

} // namespace

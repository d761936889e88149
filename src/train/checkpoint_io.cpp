#include "train/checkpoint_io.hpp"

#include <cstring>

#include "common/wire.hpp"

namespace train {

namespace {

/** "VPCK" as the image's u32 magic. */
constexpr std::uint32_t kMagic = 0x4B435056u;
constexpr std::size_t kDigestBytes = 8;

} // namespace

std::vector<std::uint8_t>
serializeCheckpoint(const TrainCheckpoint& ckpt)
{
    std::vector<std::uint8_t> out =
        common::beginImage(kMagic, kCheckpointVersion,
                           8 + 4 + 4 + 8 + 4 * ckpt.params.size());
    common::putU64(out, static_cast<std::uint64_t>(ckpt.next_input));
    common::putF32(out, ckpt.learning_rate);
    common::putF32(out, ckpt.weight_decay);
    common::putU64(out, static_cast<std::uint64_t>(ckpt.params.size()));
    // The parameters in place, each as putF32 writes it: four
    // little-endian bytes of its bits.
    const std::size_t first = out.size();
    out.resize(first + 4 * ckpt.params.size());
    std::uint8_t* p = out.data() + first;
    for (const float v : ckpt.params) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 4; ++i)
            *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    common::sealImage(out);
    return out;
}

common::Result<TrainCheckpoint>
deserializeCheckpoint(const std::uint8_t* data, std::size_t size)
{
    common::WireReader r(data, size, "checkpoint blob");
    r.openImage(kMagic, kCheckpointVersion);
    TrainCheckpoint ckpt;
    ckpt.next_input = static_cast<std::size_t>(r.u64("next_input"));
    ckpt.learning_rate = r.f32("learning_rate");
    ckpt.weight_decay = r.f32("weight_decay");
    // The count must cover exactly the bytes before the digest. It is
    // checked before the digest, and before it sizes anything, so a
    // corrupted count names itself.
    const std::uint64_t count = r.u64("param count");
    if (!r.check(count <= r.remaining() / 4 &&
                     r.remaining() - 4 * count == kDigestBytes,
                 "param count ", count, " disagrees with ",
                 r.remaining(), " bytes left"))
        return r.takeStatus();
    ckpt.params.resize(static_cast<std::size_t>(count));
    for (float& v : ckpt.params)
        v = r.f32("params");
    r.closeImage();
    if (!r.ok())
        return r.takeStatus();
    return ckpt;
}

common::Status
restoreCheckpointBlob(const std::vector<std::uint8_t>& blob,
                      graph::Model& model, gpusim::Device& device)
{
    auto ckpt = deserializeCheckpoint(blob);
    if (!ckpt.ok())
        return ckpt.takeStatus();
    return restoreCheckpoint(ckpt.value(), model, device);
}

} // namespace train

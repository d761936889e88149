/**
 * @file
 * Checkpoint blob (de)serialization.
 *
 * A TrainCheckpoint that never leaves the process is trivially
 * trustworthy; one that crosses a process/replica boundary (the
 * serve::Fleet ships checkpoints to warm standbys, and operators ship
 * them to disk) is attacker-adjacent input: truncated writes, torn
 * reads, and bit rot are all routine. The blob is therefore a sealed
 * image (common/wire.hpp): a magic, a version, explicit counts, and a
 * trailing FNV-1a digest over everything before it, and the
 * deserializer validates all of them before returning a checkpoint --
 * every malformed input surfaces as a structured Status
 * (checkpoint_fuzz_test drives random and bit-flipped blobs through
 * this path).
 *
 * Layout, little-endian, no padding:
 *
 *   offset  size  field
 *        0     4  magic "VPCK"
 *        4     4  version (currently 1)
 *        8     8  next_input (u64)
 *       16     4  learning_rate (f32 bits)
 *       20     4  weight_decay (f32 bits)
 *       24     8  param_count (u64)
 *       32    4N  params (N f32, ParamId order)
 *   32+4N     8  FNV-1a 64 digest of bytes [0, 32+4N)
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "train/harness.hpp"

namespace train {

/** Serialized-blob format version written by serializeCheckpoint. */
inline constexpr std::uint32_t kCheckpointVersion = 1;

/** Serialize @p ckpt into the self-validating wire format above. */
std::vector<std::uint8_t>
serializeCheckpoint(const TrainCheckpoint& ckpt);

/**
 * Parse a checkpoint blob. Rejects -- with a structured
 * InvalidArgument Status naming the first violated field -- anything
 * that is not a complete, digest-verified serializeCheckpoint()
 * image: short buffers, bad magic, unknown versions, param counts
 * that disagree with the buffer length, and corrupted payloads.
 */
common::Result<TrainCheckpoint>
deserializeCheckpoint(const std::uint8_t* data, std::size_t size);

inline common::Result<TrainCheckpoint>
deserializeCheckpoint(const std::vector<std::uint8_t>& blob)
{
    return deserializeCheckpoint(blob.data(), blob.size());
}

/**
 * restoreCheckpoint() from a serialized blob: deserialize (rejecting
 * malformed input before anything is mutated) then restore into
 * @p model / @p device.
 */
common::Status restoreCheckpointBlob(
    const std::vector<std::uint8_t>& blob, graph::Model& model,
    gpusim::Device& device);

} // namespace train

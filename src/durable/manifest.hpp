/**
 * @file
 * Generation manifests and the atomic checkpoint install protocol.
 *
 * A checkpoint overwritten in place can be torn by a crash into a
 * restorable-looking half-state. The classic fix, implemented here on
 * the simulated store, makes the manifest rename the *single commit
 * point* of a whole generation:
 *
 *   1. sync the current WAL segment (its records must not be newer
 *      than the checkpoint that supersedes them),
 *   2. write ckpt.<N>.tmp, sync it, rename it to ckpt.<N>,
 *   3. create + sync the empty wal.<N> segment,
 *   4. write MANIFEST.tmp naming generation N's files (with the
 *      checkpoint's size and digest), sync it, and rename it onto
 *      MANIFEST -- the atomic install point,
 *   5. garbage-collect generation N-1's files.
 *
 * A crash strictly before step 4's rename leaves MANIFEST pointing at
 * the fully-durable generation N-1 (whose files GC has not touched);
 * a crash at or after it leaves generation N fully durable because
 * every file the new MANIFEST names was synced before the rename.
 * Torn bytes can only live in *.tmp files or past the synced WAL
 * prefix, and the loader never reads either. The crash-point sweep in
 * durable_store_test proves this by interrupting an install at every
 * store operation.
 *
 * The manifest is a sealed image (common/wire.hpp) like the
 * checkpoint blob: magic, version, length-prefixed fields in a fixed
 * order, trailing FNV-1a 64 digest, validation in layout order with a
 * structured error naming the first violated field.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "durable/stable_store.hpp"

namespace durable {

/** Expected value of the manifest header magic ("VPMF"). */
inline constexpr std::uint32_t kManifestMagic = 0x464D5056u;

/** Current manifest format version. */
inline constexpr std::uint32_t kManifestVersion = 1;

/** What a manifest commits: one generation's file set. */
struct Manifest
{
    std::uint64_t generation = 0;
    std::string checkpoint_file;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t checkpoint_digest = 0; //!< FNV-1a 64 of the blob
    std::string wal_file;
};

/** Serialize a manifest (magic/version/fields/digest). */
std::vector<std::uint8_t> serializeManifest(const Manifest& m);

/**
 * Parse and validate a manifest image. Validation runs in layout
 * order and returns InvalidArgument naming the first violated field;
 * never crashes on arbitrary bytes (fuzz target).
 */
common::Result<Manifest> parseManifest(const std::uint8_t* data,
                                       std::size_t size);

common::Result<Manifest>
parseManifest(const std::vector<std::uint8_t>& bytes);

/**
 * The atomic checkpoint protocol over one directory of a store.
 * Owns file naming (dir/MANIFEST, dir/ckpt.<gen>, dir/wal.<gen>)
 * and the install/load/GC choreography.
 */
class CheckpointStore
{
  public:
    CheckpointStore(StableStore& store, std::string dir);

    /** Has any generation ever been installed here? */
    bool hasState() const;

    /**
     * Atomically install @p payload as generation @p generation,
     * creating its fresh (empty) WAL segment. On an OK return the
     * new generation is fully durable and the previous one's files
     * are gone; on failure the previous generation is untouched.
     * @param current_wal the active segment to sync first ("" on the
     *        very first install, when no WAL exists yet).
     */
    common::Result<Manifest>
    install(std::uint64_t generation,
            const std::vector<std::uint8_t>& payload,
            const std::string& current_wal = "");

    /** A loaded generation: its manifest plus checkpoint bytes. */
    struct Loaded
    {
        Manifest manifest;
        std::vector<std::uint8_t> payload;
    };

    /**
     * Load the installed generation, verifying the checkpoint's size
     * and digest against the manifest (DataLoss on mismatch -- e.g.
     * bit rot the store injected under the digest).
     */
    common::Result<Loaded> loadLatest() const;

    StableStore& store() { return store_; }

    std::string manifestFile() const { return dir_ + "/MANIFEST"; }

    std::string
    checkpointFile(std::uint64_t gen) const
    {
        return dir_ + "/ckpt." + std::to_string(gen);
    }

    std::string
    walFile(std::uint64_t gen) const
    {
        return dir_ + "/wal." + std::to_string(gen);
    }

  private:
    StableStore& store_;
    std::string dir_;
};

} // namespace durable

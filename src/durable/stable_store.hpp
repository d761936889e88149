/**
 * @file
 * Simulated stable storage for the crash-consistency layer.
 *
 * The serving host's only state that survives a process crash is what
 * it forced to stable storage first; everything else -- queues,
 * buffered journal bytes, JITted specializations -- dies with the
 * process. This store models exactly that boundary with a
 * deterministic in-memory filesystem: every file is a durable byte
 * prefix plus a pending (written-but-unsynced) tail, sync() moves
 * pending bytes across the durability line at a modeled latency, and
 * crash() drops every pending tail, optionally leaving a seeded
 * *torn* prefix of it behind (with per-byte bit rot inside the torn
 * region) the way a real disk tears a power-cut write across sectors.
 *
 * Injection follows the gpusim::FaultPlan conventions: rate-based
 * faults draw from a seeded xoshiro stream owned by the store, so a
 * given StorePlan reproduces the identical fault sequence on every
 * run and at every host thread count. All latencies are simulated
 * microseconds accumulated into StoreStats::sim_us; callers diff that
 * counter around an operation to charge their own clocks.
 *
 * rename() is atomic and immediately durable (journaled metadata, the
 * POSIX contract checkpoint installs rely on); a crash can land
 * before or after a rename but never inside one.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace durable {

/** Fault rates and stream seed for a store. */
struct StorePlan
{
    std::uint64_t seed = 1;

    /** P(a file's unsynced tail survives a crash as a torn prefix
     *  instead of vanishing), per dirty file per crash. */
    double torn_write_rate = 0.0;

    /** P(a sync persists only a prefix and reports ShortWrite --
     *  the caller must re-sync), per sync attempt. */
    double short_write_rate = 0.0;

    /** P(a surviving torn-region byte has one bit flipped), per
     *  byte. Models media decay the trailing digest must catch. */
    double bit_rot_rate = 0.0;

    // The modeled latencies are constants of the store, not of the
    // plan (stable_store.cpp): append 0.05 us/KiB (page-cache copy),
    // sync 100 us + 2 us/KiB (flush and barrier), read 25 us + 1
    // us/KiB, rename or remove 50 us (journaled metadata commit).
};

/** Operation counts plus accumulated modeled latency. */
struct StoreStats
{
    std::uint64_t appends = 0;
    std::uint64_t syncs = 0;
    std::uint64_t short_writes = 0; //!< syncs that persisted a prefix
    std::uint64_t renames = 0;
    std::uint64_t removes = 0;
    std::uint64_t reads = 0;
    std::uint64_t crashes = 0;

    std::uint64_t bytes_appended = 0;
    std::uint64_t bytes_synced = 0;
    std::uint64_t bytes_read = 0;

    /** Crash-time injection outcomes. */
    std::uint64_t torn_files = 0;
    std::uint64_t torn_bytes_kept = 0;
    std::uint64_t unsynced_bytes_lost = 0;
    std::uint64_t rotted_bits = 0;

    /** Total modeled latency of all operations so far, us. Callers
     *  diff this around an operation to charge their sim clocks. */
    double sim_us = 0.0;
};

/**
 * The simulated stable store. Mutating operations fail with
 * Unavailable between crash() and restart() -- the store belongs to a
 * dead process until the recovering one remounts it.
 */
class StableStore
{
  public:
    explicit StableStore(StorePlan plan = {});

    const StorePlan& plan() const { return plan_; }
    const StoreStats& stats() const { return stats_; }

    /** @name Writes (buffered until sync) @{ */

    /** Append bytes to a file's pending tail (creating the file). */
    common::Status append(const std::string& name,
                          const std::vector<std::uint8_t>& bytes);

    /**
     * Replace a file's contents. Like O_TRUNC, the truncation of the
     * durable bytes is immediate but the *new* bytes are pending
     * until sync -- which is exactly why checkpoint installs must
     * write a temp file and rename, never overwrite in place.
     */
    common::Status writeFile(const std::string& name,
                             const std::vector<std::uint8_t>& bytes);

    /**
     * Force a file's pending bytes durable. With short-write
     * injection a sync may persist only a prefix and return a
     * ShortWrite failure; the remaining bytes stay pending and the
     * caller must sync again (durability is only guaranteed once a
     * sync returns OK).
     */
    common::Status sync(const std::string& name);

    /** sync() with bounded retries across injected short writes. */
    common::Status syncRetry(const std::string& name,
                             int max_attempts = 8);

    /** @} */

    /** @name Metadata (atomic, immediately durable) @{ */

    /** Atomically rename @p from onto @p to, replacing it. The
     *  file's pending tail (if any) stays pending under the new
     *  name. */
    common::Status rename(const std::string& from,
                          const std::string& to);

    /** Delete a file (durable and pending bytes both). */
    common::Status remove(const std::string& name);

    /** @} */

    /** @name Reads @{ */

    /** Whole logical contents: durable bytes plus this process's own
     *  pending tail (a live process reads its own writes). */
    common::Result<std::vector<std::uint8_t>>
    read(const std::string& name) const;

    bool exists(const std::string& name) const;

    /** Names with the given prefix, sorted. */
    std::vector<std::string>
    list(const std::string& prefix = "") const;

    /** @} */

    /** @name Crash machinery @{ */

    /**
     * Kill the owning process: every file's pending tail is dropped
     * (or left as a seeded torn, possibly bit-rotten prefix), and the
     * store goes dead until restart(). Files are processed in name
     * order so the injection draw sequence is deterministic.
     */
    void crash();

    /** Remount after a crash; durable bytes are exactly what
     *  survived. */
    void restart();

    bool dead() const { return dead_; }

    /**
     * Arm an automatic crash() after @p ops more successful mutating
     * operations (append/writeFile/sync/rename/remove; 0 = crash
     * immediately). The atomic-install sweep uses this to interrupt
     * a checkpoint install at every possible store operation.
     */
    void crashAfterOps(std::uint64_t ops);

    /** Successful mutating operations so far (sweep upper bound). */
    std::uint64_t mutatingOps() const { return mutating_ops_; }

    /** @} */

  private:
    struct File
    {
        std::vector<std::uint8_t> durable;
        std::vector<std::uint8_t> pending;
    };

    common::Status requireAlive(const char* op) const;
    void charge(double us) const { stats_.sim_us += us; }
    void opDone(); //!< count a mutating op; fire an armed crash

    StorePlan plan_;
    common::Rng rng_;
    mutable StoreStats stats_; //!< reads are const but still metered
    std::map<std::string, File> files_;
    bool dead_ = false;
    bool crash_armed_ = false;
    std::uint64_t crash_after_ops_ = 0;
    std::uint64_t mutating_ops_ = 0;
};

} // namespace durable

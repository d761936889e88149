#include "durable/stable_store.hpp"

#include <algorithm>

namespace durable {

namespace {

/** @name Modeled latencies (simulated microseconds) @{ */
constexpr double kAppendUsPerKb = 0.05; //!< page-cache copy, no I/O
constexpr double kSyncBaseUs = 100.0;   //!< fsync: flush + barrier floor
constexpr double kSyncUsPerKb = 2.0;    //!< per-KiB transfer during sync
constexpr double kReadBaseUs = 25.0;
constexpr double kReadUsPerKb = 1.0;
constexpr double kRenameUs = 50.0; //!< journaled metadata commit
/** @} */

double
perKbUs(double rate_per_kb, std::size_t bytes)
{
    return rate_per_kb * (static_cast<double>(bytes) / 1024.0);
}

} // namespace

StableStore::StableStore(StorePlan plan)
    : plan_(plan), rng_(plan.seed)
{
}

common::Status
StableStore::requireAlive(const char* op) const
{
    if (!dead_)
        return {};
    return common::Status::failure(
        common::ErrorCode::Unavailable,
        std::string("stable store is down (host crashed): ") + op);
}

void
StableStore::opDone()
{
    ++mutating_ops_;
    if (!crash_armed_)
        return;
    if (crash_after_ops_ > 0) {
        --crash_after_ops_;
        return;
    }
    crash_armed_ = false;
    crash();
}

common::Status
StableStore::append(const std::string& name,
                    const std::vector<std::uint8_t>& bytes)
{
    if (auto st = requireAlive("append"); !st.ok())
        return st;
    File& f = files_[name];
    f.pending.insert(f.pending.end(), bytes.begin(), bytes.end());
    ++stats_.appends;
    stats_.bytes_appended += bytes.size();
    charge(perKbUs(kAppendUsPerKb, bytes.size()));
    opDone();
    return {};
}

common::Status
StableStore::writeFile(const std::string& name,
                       const std::vector<std::uint8_t>& bytes)
{
    if (auto st = requireAlive("writeFile"); !st.ok())
        return st;
    File& f = files_[name];
    f.durable.clear(); // O_TRUNC: the old contents are gone *now*
    f.pending = bytes;
    ++stats_.appends;
    stats_.bytes_appended += bytes.size();
    charge(perKbUs(kAppendUsPerKb, bytes.size()));
    opDone();
    return {};
}

common::Status
StableStore::sync(const std::string& name)
{
    if (auto st = requireAlive("sync"); !st.ok())
        return st;
    auto it = files_.find(name);
    if (it == files_.end())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "sync of nonexistent file: " + name);
    File& f = it->second;
    if (f.pending.empty())
        return {}; // nothing to flush; free no-op
    ++stats_.syncs;
    charge(kSyncBaseUs + perKbUs(kSyncUsPerKb, f.pending.size()));
    std::size_t take = f.pending.size();
    const bool short_write =
        plan_.short_write_rate > 0.0 &&
        rng_.nextBernoulli(plan_.short_write_rate);
    if (short_write) {
        // Only a prefix reached the platter before the "interrupted
        // system call"; the rest stays pending and the sync reports
        // failure, so a caller that needs durability must retry.
        take = static_cast<std::size_t>(
            rng_.nextBelow(f.pending.size()));
        ++stats_.short_writes;
    }
    f.durable.insert(f.durable.end(), f.pending.begin(),
                     f.pending.begin() + static_cast<long>(take));
    f.pending.erase(f.pending.begin(),
                    f.pending.begin() + static_cast<long>(take));
    stats_.bytes_synced += take;
    opDone();
    if (short_write)
        return common::Status::failure(
            common::ErrorCode::ShortWrite,
            "sync persisted only " + std::to_string(take) +
                " bytes of " + name);
    return {};
}

common::Status
StableStore::syncRetry(const std::string& name, int max_attempts)
{
    common::Status st;
    for (int i = 0; i < max_attempts; ++i) {
        st = sync(name);
        if (st.ok() || st.code() != common::ErrorCode::ShortWrite)
            return st;
    }
    return st;
}

common::Status
StableStore::rename(const std::string& from, const std::string& to)
{
    if (auto st = requireAlive("rename"); !st.ok())
        return st;
    auto it = files_.find(from);
    if (it == files_.end())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "rename of nonexistent file: " + from);
    File moved = std::move(it->second);
    files_.erase(it);
    files_[to] = std::move(moved);
    ++stats_.renames;
    charge(kRenameUs);
    opDone();
    return {};
}

common::Status
StableStore::remove(const std::string& name)
{
    if (auto st = requireAlive("remove"); !st.ok())
        return st;
    auto it = files_.find(name);
    if (it == files_.end())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "remove of nonexistent file: " + name);
    files_.erase(it);
    ++stats_.removes;
    charge(kRenameUs);
    opDone();
    return {};
}

common::Result<std::vector<std::uint8_t>>
StableStore::read(const std::string& name) const
{
    if (auto st = requireAlive("read"); !st.ok())
        return st;
    auto it = files_.find(name);
    if (it == files_.end())
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "read of nonexistent file: " + name);
    const File& f = it->second;
    std::vector<std::uint8_t> out = f.durable;
    out.insert(out.end(), f.pending.begin(), f.pending.end());
    ++stats_.reads;
    stats_.bytes_read += out.size();
    charge(kReadBaseUs + perKbUs(kReadUsPerKb, out.size()));
    return out;
}

bool
StableStore::exists(const std::string& name) const
{
    return files_.count(name) > 0;
}

std::vector<std::string>
StableStore::list(const std::string& prefix) const
{
    std::vector<std::string> names;
    for (const auto& [name, f] : files_)
        if (name.compare(0, prefix.size(), prefix) == 0)
            names.push_back(name);
    return names; // std::map iteration: already sorted
}

void
StableStore::crash()
{
    if (dead_)
        return;
    dead_ = true;
    crash_armed_ = false;
    ++stats_.crashes;
    // Name order (map order) keeps the injection draws deterministic.
    for (auto& [name, f] : files_) {
        if (f.pending.empty())
            continue;
        std::size_t kept = 0;
        if (plan_.torn_write_rate > 0.0 &&
            rng_.nextBernoulli(plan_.torn_write_rate)) {
            // A torn write: some prefix of the in-flight bytes made
            // it to the platter before power died.
            kept = static_cast<std::size_t>(
                rng_.nextBelow(f.pending.size() + 1));
        }
        if (kept > 0) {
            ++stats_.torn_files;
            stats_.torn_bytes_kept += kept;
            const std::size_t base = f.durable.size();
            f.durable.insert(f.durable.end(), f.pending.begin(),
                             f.pending.begin() +
                                 static_cast<long>(kept));
            if (plan_.bit_rot_rate > 0.0) {
                for (std::size_t i = base; i < f.durable.size(); ++i) {
                    if (!rng_.nextBernoulli(plan_.bit_rot_rate))
                        continue;
                    f.durable[i] ^= static_cast<std::uint8_t>(
                        1u << rng_.nextBelow(8));
                    ++stats_.rotted_bits;
                }
            }
        }
        stats_.unsynced_bytes_lost += f.pending.size() - kept;
        f.pending.clear();
    }
}

void
StableStore::restart()
{
    dead_ = false;
}

void
StableStore::crashAfterOps(std::uint64_t ops)
{
    if (ops == 0) {
        crash();
        return;
    }
    crash_armed_ = true;
    crash_after_ops_ = ops - 1;
}

} // namespace durable

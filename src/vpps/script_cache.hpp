/**
 * @file
 * Shared validated-script cache (DESIGN.md section 4.11).
 *
 * Identical batches generate identical script words, so every
 * replica of a data-parallel job validates the same programs. This
 * cache lifts the per-ScriptExecutor validation memo into a sharable,
 * mutex-guarded store of immutable `ValidatedProgram`s: N replica
 * handles point at one ScriptCache and the first replica's
 * validation pays for all of them. An entry owns its validated copy
 * of the script's words, so a hit never reads the new script's words:
 * a digest collision can at worst run another validated program.
 * Entries are `shared_ptr<const ...>` so a program an executor is
 * interpreting survives an evict-all triggered by another replica
 * mid-run.
 *
 * Keys fold in everything validation depends on: the script's
 * content checksum, the model's parameter count and every
 * parameter's shape (param-id immediates are range-checked against
 * the count, matrix operands against the rows and cols), and the
 * device pool capacity (operand offsets are range-checked against
 * it). Sharing across replicas is therefore only a hit when the
 * replicas really are clones.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "graph/model.hpp"
#include "vpps/script_exec.hpp"

namespace vpps {

/** Thread-safe store of validated programs, bounded by a total
 *  instruction budget with evict-all semantics (the in-memory
 *  analogue of the on-disk kernel cache's replacement policy). */
class ScriptCache
{
  public:
    /** Default instruction budget (~12 bytes per instruction). */
    static constexpr std::size_t kDefaultMaxInstructions = 4u << 20;

    explicit ScriptCache(
        std::size_t max_instructions = kDefaultMaxInstructions)
        : max_instructions_(max_instructions)
    {
    }

    ScriptCache(const ScriptCache&) = delete;
    ScriptCache& operator=(const ScriptCache&) = delete;

    /** Cache key over every validation input: the script, the shapes
     *  of @p model's parameters, and the device memory capacity
     *  @p pool_floats the operands were validated against. */
    static std::uint64_t
    key(std::uint64_t script_checksum, const graph::Model& model,
        std::size_t pool_floats)
    {
        // FNV-1a over the parameter count and every (rows, cols).
        std::uint64_t shapes = 1469598103934665603ull;
        auto mix = [&shapes](std::uint64_t v) {
            shapes ^= v;
            shapes *= 1099511628211ull;
        };
        mix(model.numParams());
        for (graph::ParamId p = 0; p < model.numParams(); ++p) {
            mix(model.param(p).shape.rows());
            mix(model.param(p).shape.cols());
        }
        std::uint64_t h = script_checksum;
        h ^= 0x9E3779B97F4A7C15ull * (shapes + 1);
        h ^= 0xC2B2AE3D27D4EB4Full *
             (static_cast<std::uint64_t>(pool_floats) + 1);
        return h;
    }

    /** @return the cached program for @p key, or nullptr (miss). */
    std::shared_ptr<const ValidatedProgram>
    find(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = map_.find(key); it != map_.end())
        {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Store @p prog under @p key and return it as shared. If the
     * instruction budget is exceeded the whole map is dropped first;
     * in-flight executors keep their programs alive through their
     * own shared_ptr. Losing a race with another inserter is fine:
     * both validated copies of one key are identical, last-write
     * wins.
     */
    std::shared_ptr<const ValidatedProgram>
    insert(std::uint64_t key, std::unique_ptr<ValidatedProgram> prog)
    {
        std::shared_ptr<const ValidatedProgram> shared(std::move(prog));
        std::lock_guard<std::mutex> lock(mu_);
        if (cached_instructions_ > max_instructions_)
        {
            map_.clear();
            cached_instructions_ = 0;
            ++evictions_;
        }
        cached_instructions_ += shared->total_instructions;
        map_[key] = shared;
        return shared;
    }

    /** Lifetime counters (metrics + cache-sharing tests). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0; //!< evict-all events
        std::size_t entries = 0;
        std::size_t cached_instructions = 0;
    };

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        Stats s;
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.entries = map_.size();
        s.cached_instructions = cached_instructions_;
        return s;
    }

  private:
    const std::size_t max_instructions_;

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const ValidatedProgram>>
        map_;
    std::size_t cached_instructions_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace vpps

/**
 * @file
 * Shared validated-script cache (DESIGN.md section 4.11).
 *
 * Identical batches generate identical script words, so every
 * replica of a data-parallel job, and every repeat of a batch,
 * validates the same programs. This cache lifts the per-ScriptExecutor
 * validation memo into a sharable, mutex-guarded store of immutable
 * `ValidatedProgram`s: N replica handles point at one ScriptCache and
 * the first replica's validation, which schedules the program, pays
 * for all of them. An entry owns its validated copy of the
 * script's words, so a hit never reads a new script's words: a key
 * collision can at worst run another validated program. Entries are
 * `shared_ptr<const ...>` so a program an executor is interpreting,
 * or a generated batch holds, survives an evict-all triggered by
 * another replica mid-run.
 *
 * A generated batch is keyed by what the generator reads, not by the
 * words it writes (ScriptGenerator::generate), so a hit skips
 * emission as well as validation. A script no generator made is keyed
 * by its content checksum. Either digest is folded here with
 * everything validation depends on: the model's parameter count and
 * every parameter's shape (param-id immediates are range-checked
 * against the count, matrix operands against the rows and cols), and
 * the device pool capacity (operand offsets are range-checked against
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

    /** Cache key over every validation input: @p script_digest (the
     *  generator's emission digest, or Script::checksum() for a
     *  script no generator made), the shapes of @p model's parameters,
     *  and the device memory capacity @p pool_floats the operands are
     *  validated against. */
    static std::uint64_t
    key(std::uint64_t script_digest, const graph::Model& model,
        std::size_t pool_floats)
    {
        std::uint64_t h = script_digest;
        h ^= 0x9E3779B97F4A7C15ull * (shapesDigest(model) + 1);
        h ^= 0xC2B2AE3D27D4EB4Full *
             (static_cast<std::uint64_t>(pool_floats) + 1);
        return h;
    }

    /** FNV-1a over @p model's parameter count and every parameter's
     *  (rows, cols). */
    static std::uint64_t
    shapesDigest(const graph::Model& model)
    {
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
        return shapes;
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
     * Store @p prog under @p key and return the cached program. If
     * the insert would take the cache past its instruction budget the
     * whole map is dropped first; a lone program larger than the
     * budget is still cached. In-flight executors and generated
     * batches keep their programs alive through their own shared_ptr.
     * Losing a race with another inserter is fine: both validated
     * copies of one key are identical, and the first one stays.
     */
    std::shared_ptr<const ValidatedProgram>
    insert(std::uint64_t key, std::unique_ptr<ValidatedProgram> prog)
    {
        std::shared_ptr<const ValidatedProgram> shared(std::move(prog));
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = map_.find(key); it != map_.end())
            return it->second;
        if (!map_.empty() && cached_instructions_ +
                                     shared->total_instructions >
                                 max_instructions_)
        {
            map_.clear();
            cached_instructions_ = 0;
            ++evictions_;
        }
        cached_instructions_ += shared->total_instructions;
        map_.emplace(key, shared);
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

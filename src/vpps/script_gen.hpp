/**
 * @file
 * GPU script generation (Section III-B1, Fig 6).
 *
 * For every batch, the host sorts the super-graph's nodes by maximum
 * depth from the leaves, then traverses level by level (and in
 * reverse for backward), encoding each operation's lowering
 * (vpps/lowering.hpp, the one the baselines run too) as CISC
 * instructions. Nodes that touch a cached weight matrix are executed
 * cooperatively by every VPP caching rows of that matrix; all other
 * nodes are assigned to the VPP with the minimum accumulated load,
 * with matrix-related work weighted higher (the paper's load metric).
 * Signal/wait barrier pairs separate consecutive phases so producers
 * are visible to consumers.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gpusim/device.hpp"
#include "graph/expr.hpp"
#include "vpps/codegen.hpp"
#include "vpps/isa.hpp"

namespace vpps {

class ScriptCache;
struct ValidatedProgram;

/** Host-side statistics of one generation run (Fig 10 inputs). */
struct GenStats
{
    std::size_t live_nodes = 0;
    std::size_t fwd_instructions = 0;
    std::size_t bwd_instructions = 0;
    std::size_t update_instructions = 0;
    std::size_t barriers = 0;

    /** Script size in bytes (the H2D transfer size, Script::bytes()). */
    double script_bytes = 0.0;

    /** Modeled host time for forward scheduling, us. */
    double fwd_sched_us = 0.0;

    /** Modeled host time for backward scheduling, us. */
    double bwd_sched_us = 0.0;

    /** Bytes of input data staged host-to-device this batch. */
    double input_bytes = 0.0;

    /** Bytes zero-initialized for gradients (memset stores). */
    double zeroed_bytes = 0.0;
};

/** Staging layout for the uncached-gradient GEMM fallback
 *  (Section III-C2). */
struct GemmStaging
{
    graph::ParamId matrix = graph::kNoParam;
    /** Concatenated right-hand-side vectors (x's), cols x count. */
    gpusim::DeviceMemory::Offset lhs_base =
        gpusim::DeviceMemory::kNullOffset;
    /** Concatenated upstream gradients (dy's), rows x count. */
    gpusim::DeviceMemory::Offset rhs_base =
        gpusim::DeviceMemory::kNullOffset;
    std::uint32_t count = 0;
};

/** Everything fb() needs to run one batch's kernel. */
struct GeneratedBatch
{
    Script script;
    GenStats stats;
    /** Per-matrix staging areas; empty when gradients are cached. */
    std::vector<GemmStaging> gemm_staging;
    /** Loss node (its fwd offset holds the batch loss). */
    graph::NodeId loss_node = 0;

    /** @name Script-cache state (DESIGN.md section 4.11)
     *  @{ */
    /** ScriptCache::key over the generator's inputs. Unset for a
     *  batch no generator made, which the executor keys by
     *  Script::checksum(). */
    std::optional<std::uint64_t> cache_key;
    /** A cache hit's validated program; `script` then holds no words
     *  and is never sealed. */
    std::shared_ptr<const ValidatedProgram> program;
    /** The cache generate() looked `cache_key` up in and missed, so
     *  an executor on that cache inserts without a second lookup. */
    const ScriptCache* missed_in = nullptr;
    /** @} */

    explicit GeneratedBatch(int num_vpps) : script(num_vpps) {}
};

/** Generates the execution script for one batch. */
class ScriptGenerator
{
  public:
    ScriptGenerator(const CompiledKernel& kernel,
                    const gpusim::HostSpec& host);

    /**
     * Place buffers and generate the forward + backward + update
     * script for the super-graph rooted at @p loss.
     *
     * Placement allocates from the device pool; the caller is
     * responsible for resetting the pool mark between batches.
     *
     * Every batch is placed, then keyed by a digest of what emission
     * reads: the distribution plan, the parameter layout, the loss
     * node and every node's op, liveness, operands and offsets (input
     * values are not read). Given @p cache, a hit returns the cached
     * program instead of emitting: no level sort, no words, no seal.
     * The caller must run the batch on an executor over the same
     * device and model, since the key covers their pool capacity and
     * parameter shapes. Without @p cache the script is always
     * emitted, and the executor looks the key up itself.
     */
    GeneratedBatch generate(gpusim::Device& device, graph::Model& model,
                            graph::ComputationGraph& cg, graph::Expr loss,
                            ScriptCache* cache = nullptr) const;

  private:
    /** Fill @p stats' modeled scheduling times from its counts. */
    void chargeScheduling(GenStats& stats) const;

    const CompiledKernel& kernel_;
    const gpusim::HostSpec host_;
};

} // namespace vpps

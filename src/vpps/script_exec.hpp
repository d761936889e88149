/**
 * @file
 * Script-guided execution of the specialized forward-backward kernel
 * (Section III-B2, Fig 7).
 *
 * Each VPP fetches its script section, then loops: decode one
 * instruction, switch on its type, execute it with all the CTA's
 * threads. Matrix instructions read weights from the register cache
 * (no DRAM traffic); signal/wait instructions synchronize VPPs
 * through global-memory barriers. The simulator runs the same
 * functional math as the baselines while charging per-instruction
 * costs onto per-VPP timelines, so the kernel duration reflects both
 * the work and the barrier/imbalance structure of the script.
 *
 * Host-parallel interpretation: the paper's VPPs execute their script
 * sections concurrently between signal/wait barriers, and the
 * interpreter exploits the same independence. Each VPP stream is
 * sliced into segments at the Signal/Wait points of its sync table;
 * all segments runnable in one scheduling round belong to phases
 * whose inputs are already barrier-complete, so they execute
 * concurrently on a worker pool. Accounting (traffic, instruction
 * counts) goes to per-VPP sinks merged in VPP order, and cross-VPP
 * accumulations (MatVecT's dx, the Accum family) are computed into
 * per-VPP scratch and applied by the scheduler in (VPP,
 * program-order) order at the phase boundary. Outer accumulates
 * straight into its VPP's own rows of dW, which no other VPP holds --
 * so results, traffic tables, and timings are bitwise identical for
 * any thread count. See DESIGN.md, "Host-parallel interpretation".
 */
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "gpusim/persistent_sim.hpp"
#include "graph/expr.hpp"
#include "vpps/script_gen.hpp"

namespace common {
class ThreadPool;
}

namespace vpps {

class ScriptCache;

/** Outcome of one forward-backward kernel invocation. */
struct RunResult
{
    /** Persistent-kernel duration (launch + makespan), us. */
    double kernel_us = 0.0;

    /** Extra kernels (staged gradient GEMMs + matrix updates) when
     *  gradients are not register-cached, us. */
    double extra_kernel_us = 0.0;

    /** Batch loss read back from the device. */
    float loss = 0.0f;

    /** Mean per-VPP busy time (load-balance diagnostics), us. */
    double mean_vpp_us = 0.0;

    /** Max per-VPP time = the kernel body duration, us. */
    double makespan_us = 0.0;

    /** Instructions interpreted across all VPPs. */
    std::uint64_t instructions = 0;

    /** Cached-weight prologue reloads after detected ECC errors
     *  (fault injection only; always 0 without an injector). */
    std::uint64_t weight_reloads = 0;
};

/**
 * One Signal or Wait in a VPP's stream. The interpreter cuts each
 * stream into segments at these points without scanning the
 * instructions in between.
 */
struct SyncPoint
{
    std::uint32_t word = 0;     //!< word offset in the VPP's section
    std::uint32_t index = 0;    //!< instruction index (pc) in the stream
    std::uint32_t barrier = 0;  //!< barrier it signals or waits on
    Opcode op = Opcode::Signal; //!< Signal or Wait
};

/**
 * The order in which a program's scheduling rounds run. Per round:
 * the VPPs whose next Signal or Wait the barrier fixpoint applied, in
 * application order, then the VPPs it cut a segment for, in VPP
 * order. A round resolves barriers by signal counts, never by time,
 * so the rounds are a function of the validated program: validation
 * computes them once, and every fault-free run applies them. A run
 * whose injected hang fires computes its own from the hung VPP.
 * Four bytes per sync point and per segment, eight per round.
 */
struct RoundOrder
{
    /** Where one round's entries end in `syncs` and `segments`. */
    struct Round
    {
        std::uint32_t syncs_end = 0;
        std::uint32_t segments_end = 0;
    };

    std::vector<Round> rounds;
    std::vector<std::uint32_t> syncs;    //!< VPP ids
    std::vector<std::uint32_t> segments; //!< VPP ids

    /** Code Ok when the program runs to its end. Otherwise the
     *  HungVpp or BarrierDeadlock error naming the stuck VPPs, pcs
     *  and barriers: the last round is the stalled one, which applies
     *  its syncs and cuts no segment. */
    common::ErrorInfo stall;
};

/**
 * A script checked once and copied: the words of every VPP's stream
 * exactly as validated, about 12 bytes per instruction, each VPP's
 * sync table, and the program's schedule. Built once per distinct
 * script and reused across minibatch replays (the in-memory analogue
 * of the on-disk kernel cache: identical batches produce identical
 * script words, so emitting and validating them again is pure waste).
 * The interpreter reads only this copy, never the Script it came
 * from, whose stream buffers the next script built on the same thread
 * takes over. It also keeps what a cache hit, which emits nothing,
 * must still charge: the per-pass instruction counts, the barrier
 * count (`expected_signals.size()`) and the script bytes (bytes()).
 * Immutable once validated.
 */
struct ValidatedProgram
{
    /** Where one VPP's stream lies in `words` and its sync points in
     *  `syncs`. */
    struct Section
    {
        std::size_t first_word = 0;
        std::uint32_t num_words = 0;
        std::uint32_t num_instructions = 0;
        std::size_t first_sync = 0;
        std::uint32_t num_syncs = 0;
    };

    /** One section per VPP. */
    std::vector<Section> sections;
    /** Every VPP's stream, in VPP order. */
    std::vector<std::uint32_t> words;
    /** Every VPP's Signal/Wait points, in VPP then program order. */
    std::vector<SyncPoint> syncs;
    /** Signals each barrier expects; every barrier receives exactly
     *  this many from the streams. */
    std::vector<std::uint32_t> expected_signals;
    /** The rounds every run that no hang interrupts applies. */
    RoundOrder schedule;
    /** Instructions across all VPPs (cache budget accounting). */
    std::size_t total_instructions = 0;
    /** Non-sync instructions per pass, as the generator counted them
     *  (GenStats); zero for a script no generator made. */
    std::size_t fwd_instructions = 0;
    std::size_t bwd_instructions = 0;
    std::size_t update_instructions = 0;

    int numVpps() const { return static_cast<int>(sections.size()); }

    /** @return the size of the script it was validated from, exactly
     *  as Script::bytes() computes it. */
    double
    bytes() const
    {
        return 4.0 * (static_cast<double>(sections.size() + 1) +
                      static_cast<std::uint32_t>(words.size()));
    }
};

/** Interprets generated scripts against the simulated device. */
class ScriptExecutor
{
  public:
    /**
     * @param device the simulated GPU to execute against
     * @param threads host worker threads used to interpret
     * independent per-VPP segments concurrently; <= 0 defers to the
     * VPPS_HOST_THREADS environment variable, else 1 (serial).
     * Results are bitwise identical for every thread count.
     * @param shared_cache optional validated-script cache shared with
     * other executors (data-parallel replicas validate each script
     * once); when null the executor owns a private cache.
     */
    explicit ScriptExecutor(gpusim::Device& device, int threads = 0,
                            ScriptCache* shared_cache = nullptr);
    ~ScriptExecutor();

    /** Resolved host thread count. */
    int threads() const { return threads_; }

    /** The validated-program cache this executor runs from: the
     *  shared one it was given, else its own. */
    ScriptCache& cache() { return *cache_; }

    /**
     * Run one batch's script: prologue (weight load, gradient-register
     * init), interpretation loop, epilogue (gradient application), and
     * -- for the uncached-gradient strategy -- the staged GEMMs and
     * dense matrix updates as separate kernel launches.
     *
     * A batch that carries a cached program (a generator's cache hit)
     * runs it as is. Otherwise the script's words are validated and
     * cached under the batch's key; see validated().
     *
     * The run applies the program's schedule, computed once at
     * validation, round by round; a run whose injected hang fires
     * schedules the program once more, with the hung VPP's Signal
     * lost. Matrix-product prices are computed once per kernel: the
     * executor keeps them, keyed by the plan's digest, the device
     * spec's fields and the model's parameter shapes, and reprices
     * when any of them moves.
     *
     * Malformed scripts (bad opcodes, truncated streams, out-of-range
     * barriers, Signal/Wait count mismatches) and stalled schedules
     * (injected hangs, barrier deadlocks) return a structured error
     * instead of aborting; the diagnostics name the VPP, pc, and
     * barrier involved. A stalled schedule runs its rounds up to the
     * stall, and that partial execution's traffic and device time
     * are still accounted (that work was wasted on the real GPU too).
     *
     * With @p apply_updates false the pass is gradient-only: every
     * SGD parameter update (the UpdateVec interpretation, the
     * cached-gradient epilogue, and the uncached dense updates) skips
     * its functional store while still charging its modeled time, so
     * gradients stay readable in each parameter's grad region and a
     * data-parallel driver can apply the canonical all-reduced update
     * itself. Timing is identical either way.
     */
    common::Result<RunResult> run(const CompiledKernel& kernel,
                                  const GeneratedBatch& batch,
                                  graph::Model& model,
                                  graph::ComputationGraph& cg,
                                  bool apply_updates = true);

  private:
    /**
     * Copy, statically validate and schedule @p batch's script, or
     * return the cached program of an identical earlier batch. The
     * key is the generator's (`batch.cache_key`); only a script no
     * generator made is keyed by its checksum. There is one lookup
     * per batch: none here when the generator already missed in this
     * executor's cache. Invalid scripts are never cached, and a hit
     * never reads the script's words.
     *
     * Validation is exhaustive over everything the interpreter will
     * later dereference: opcodes, stream framing, barrier indices and
     * signal counts, param-id immediates (against @p model), and every
     * operand offset/length pair (against the device pool capacity).
     * A program that validates OK therefore cannot drive the
     * interpreter out of bounds, no matter where its bytes came from.
     *
     * The returned shared_ptr keeps the program alive across an
     * evict-all another cache user may trigger mid-run.
     */
    common::Result<std::shared_ptr<const ValidatedProgram>>
    validated(const GeneratedBatch& batch, const graph::Model& model);

    gpusim::Device& device_;
    int threads_;
    std::unique_ptr<common::ThreadPool> pool_;

    /** What run() keeps between runs: the last kernel's price table
     *  and its key, and the cursor and segment vectors, whose buffers
     *  later runs reuse. */
    struct Kept;
    std::unique_ptr<Kept> kept_;

    /** Private cache backing `cache_` when none was shared in. */
    std::unique_ptr<ScriptCache> owned_cache_;
    /** Validated programs, keyed as ScriptCache::key() describes. */
    ScriptCache* cache_;
};

} // namespace vpps

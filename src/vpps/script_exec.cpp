#include "vpps/script_exec.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tensor/host_math.hpp"
#include "vpps/lowering.hpp"
#include "vpps/script_cache.hpp"

namespace vpps {

using gpusim::KernelCost;
using gpusim::MemSpace;

namespace {

/** Fixed interpreter overhead per instruction: shared-memory fetch,
 *  decode switch, operand unpacking. */
constexpr double kDecodeUs = 0.10;

/** Rounds with less total work than this run inline: the worker
 *  wake-up costs more than it saves on near-empty phases. */
constexpr std::size_t kMinParallelInstructions = 64;

/** One deferred cross-VPP accumulation: the contribution lives in the
 *  owning VPP's scratch arena and is applied onto the shared target by
 *  the scheduler at the phase boundary. */
struct PendingAccum
{
    std::uint32_t target = 0;
    std::uint32_t len = 0;
    std::size_t arena_pos = 0;
};

/**
 * Per-VPP accounting sink. Workers write here with no sharing; the
 * scheduler merges sinks in VPP order, which makes every counter and
 * every float reduction independent of the worker count.
 */
struct VppSink
{
    gpusim::TrafficStats traffic;
    std::uint64_t instructions = 0;
    std::vector<PendingAccum> pending;
    std::vector<float> arena;

    /** Reserve zero-initialized scratch for a deferred accumulation
     *  of @p len floats onto pool offset @p target. The pointer is
     *  only valid until the next claim. */
    float*
    claim(std::uint32_t target, std::uint32_t len)
    {
        const std::size_t pos = arena.size();
        arena.resize(pos + len); // value-init: scratch starts at zero
        pending.push_back({target, len, pos});
        return arena.data() + pos;
    }
};

/** One DRAM stream of an imm-length instruction. */
struct Stream
{
    MemSpace space = MemSpace::Activations;
    double bytes = 0.0; //!< per element of the instruction's length
};

/**
 * Simulated cost of an imm-length instruction per element of its
 * length. The matrix products' rows stay empty: their cost depends on
 * the rows each VPP caches, so the interpreter charges them from
 * MatrixCostMemo. Nop and the sync instructions cost nothing beyond
 * the decode overhead.
 */
struct OpCost
{
    Opcode op;
    double flops = 0.0;
    Stream loads[2];
    Stream store;
    /** Bytes stored once per instruction (PickNLS's loss scalar). */
    double store_fixed = 0.0;
};

constexpr MemSpace kAct = MemSpace::Activations;
constexpr MemSpace kGrad = MemSpace::ActGrads;
constexpr MemSpace kParam = MemSpace::Params;
constexpr MemSpace kParamGrad = MemSpace::ParamGrads;

// One row per opcode, in Opcode order: flops, loads, store.
constexpr OpCost kOpCosts[] = {
    {Opcode::Nop, 0, {}, {}},
    {Opcode::MatVec, 0, {}, {}},
    {Opcode::MatVecT, 0, {}, {}},
    {Opcode::Outer, 0, {}, {}},
    {Opcode::Copy, 0, {{kAct, 4}}, {kAct, 4}},
    {Opcode::Accum, 1, {{kGrad, 4}, {kGrad, 4}}, {kGrad, 4}},
    {Opcode::AccumParam, 1, {{kParamGrad, 4}, {kGrad, 4}},
     {kParamGrad, 4}},
    {Opcode::Add2, 1, {{kAct, 8}}, {kAct, 4}},
    {Opcode::Add3, 2, {{kAct, 12}}, {kAct, 4}},
    {Opcode::Mul, 1, {{kAct, 8}}, {kAct, 4}},
    {Opcode::MulAccum, 2, {{kGrad, 8}, {kAct, 4}}, {kGrad, 4}},
    {Opcode::Tanh, 10, {{kAct, 4}}, {kAct, 4}},
    {Opcode::TanhBack, 3, {{kGrad, 8}, {kAct, 4}}, {kGrad, 4}},
    {Opcode::Sigmoid, 10, {{kAct, 4}}, {kAct, 4}},
    {Opcode::SigmoidBack, 3, {{kGrad, 8}, {kAct, 4}}, {kGrad, 4}},
    {Opcode::Relu, 1, {{kAct, 4}}, {kAct, 4}},
    {Opcode::ReluBack, 1, {{kGrad, 8}, {kAct, 4}}, {kGrad, 4}},
    {Opcode::Scale, 1, {{kAct, 4}}, {kAct, 4}},
    {Opcode::ScaleAccum, 2, {{kGrad, 8}}, {kGrad, 4}},
    {Opcode::PickNLS, 10, {{kAct, 4}}, {kAct, 4}, 4},
    {Opcode::PickNLSBack, 3, {{kAct, 4}, {kGrad, 4}}, {kGrad, 4}},
    {Opcode::UpdateVec, 3, {{kParam, 4}, {kParamGrad, 4}}, {kParam, 8}},
    {Opcode::Signal, 0, {}, {}},
    {Opcode::Wait, 0, {}, {}},
};
static_assert(indexedByOpcode(kOpCosts));

/** Per-instruction cost of one matrix product on one VPP. */
struct MatrixCost
{
    double us = 0.0;        //!< vppInstructionUs of its KernelCost
    double row_bytes = 0.0; //!< 4 bytes per row the VPP caches
    double col_bytes = 0.0; //!< 4 bytes per column of the matrix
    double atomics = 0.0;   //!< MatVecT's remote atomic stores
};

/**
 * The cost of every matrix product a kernel can charge, and of its
 * epilogue on each VPP: a MatVec, MatVecT or Outer's cost depends only
 * on (opcode, param, VPP). Filled for every param id and every VPP,
 * since the validator accepts a matrix product on a VPP that caches
 * no rows of it, and on a param that is not a weight matrix; both are
 * charged as zero-row products. Each entry's time is vppInstructionUs
 * of the instruction's KernelCost, the very double chargeInstruction()
 * would add, so charging from the memo moves no bit. It reads the
 * plan, the device spec and the parameter shapes, nothing else, so
 * one memo serves every run of a kernel (ScriptExecutor::Kept).
 */
class MatrixCostMemo
{
  public:
    MatrixCostMemo(const DistributionPlan& plan,
                   const graph::Model& model,
                   const gpusim::PersistentSim& psim)
        : num_params_(model.numParams()),
          costs_(static_cast<std::size_t>(plan.numVpps()) * kOps *
                 num_params_),
          epilogue_us_(static_cast<std::size_t>(plan.numVpps()))
    {
        // Applying the register-cached gradients: a store of every
        // weight byte the VPP caches.
        for (int vpp = 0; vpp < plan.numVpps(); ++vpp) {
            const double bytes = plan.cachedWeightBytes(vpp);
            KernelCost epilogue;
            epilogue.flops = bytes / 4.0 * 3.0;
            epilogue.dram_store_bytes = bytes;
            epilogue.latency_hops = 1.0;
            epilogue_us_[static_cast<std::size_t>(vpp)] =
                psim.instructionUs(epilogue);
        }
        auto rowsOf = [&](int vpp, graph::ParamId m, bool gradient) {
            double rows = 0.0;
            for (const auto& s : plan.slices(vpp, m, gradient))
                rows += s.num_rows;
            return rows;
        };
        for (int vpp = 0; vpp < plan.numVpps(); ++vpp) {
            for (graph::ParamId m = 0; m < num_params_; ++m) {
                const double cols = model.param(m).shape.cols();
                const double rows = rowsOf(vpp, m, false);
                const double grad_rows = rowsOf(vpp, m, true);

                KernelCost fwd;
                fwd.flops = 2.0 * rows * cols;
                fwd.dram_load_bytes = 4.0 * cols;  // x (weights: regs)
                fwd.dram_store_bytes = 4.0 * rows; // y
                fwd.latency_hops = 2.0; // x load -> compute -> y store
                costs_[index(vpp, Opcode::MatVec, m)] = {
                    psim.instructionUs(fwd), 4.0 * rows, 4.0 * cols, 0.0};

                KernelCost bwd;
                const double warps = std::ceil(rows / plan.rpw());
                bwd.flops = 2.0 * rows * cols;
                bwd.dram_load_bytes = 4.0 * rows; // dy rows
                // Remote atomic stores: one per column per warp; more
                // rows per warp means fewer warps and fewer atomics
                // (the rpw trade-off of Section III-A1).
                bwd.atomic_ops = cols * warps;
                bwd.latency_hops = 2.0;
                costs_[index(vpp, Opcode::MatVecT, m)] = {
                    psim.instructionUs(bwd), 4.0 * rows, 4.0 * cols,
                    bwd.atomic_ops};

                KernelCost outer;
                outer.flops = 2.0 * grad_rows * cols;
                outer.dram_load_bytes =
                    4.0 * (grad_rows + cols); // dy rows + x
                // dy and x were just touched by the transposed product
                // in the same phase, so most of the latency is hidden.
                outer.latency_hops = 0.3;
                costs_[index(vpp, Opcode::Outer, m)] = {
                    psim.instructionUs(outer), 4.0 * grad_rows,
                    4.0 * cols, 0.0};
            }
        }
    }

    const MatrixCost&
    at(int vpp, Opcode op, std::uint32_t param) const
    {
        return costs_[index(vpp, op, param)];
    }

    /** @return the epilogue's time on VPP @p vpp. */
    double
    epilogueUs(int vpp) const
    {
        return epilogue_us_[static_cast<std::size_t>(vpp)];
    }

  private:
    static constexpr std::size_t kOps = 3; // MatVec, MatVecT, Outer

    std::size_t
    index(int vpp, Opcode op, std::uint32_t param) const
    {
        const auto k = static_cast<std::size_t>(op) -
                       static_cast<std::size_t>(Opcode::MatVec);
        return (static_cast<std::size_t>(vpp) * kOps + k) * num_params_ +
               param;
    }

    std::size_t num_params_;
    std::vector<MatrixCost> costs_;
    std::vector<double> epilogue_us_;
};

/** One VPP's run of non-sync instructions in one scheduling round. */
struct Segment
{
    int vpp;
    std::uint32_t begin_word, end_word;
    std::uint32_t begin_index, end_index;
};

/** Each VPP's place in its stream, and the rest of its sync table.
 *  The schedule and every run move it alike. */
struct Cursor
{
    std::uint32_t word = 0;  //!< offset in the VPP's section
    std::uint32_t index = 0; //!< instruction index (pc)
    const SyncPoint* sync = nullptr; //!< next sync point
    const SyncPoint* sync_end = nullptr;

    bool atSync() const { return sync != sync_end && sync->word == word; }

    /** Step past the Signal or Wait the cursor stands at. */
    void
    passSync()
    {
        ++word;
        ++index;
        ++sync;
    }

    /** Step to the next sync point, or to the end of VPP @p vpp's
     *  stream @p sec; @return the segment stepped over. */
    Segment
    cut(int vpp, const ValidatedProgram::Section& sec)
    {
        const bool last = sync == sync_end;
        const Segment seg{vpp, word, last ? sec.num_words : sync->word,
                          index,
                          last ? sec.num_instructions : sync->index};
        word = seg.end_word;
        index = seg.end_index;
        return seg;
    }
};

/** Place one cursor per VPP of @p prog at the start of its stream. */
void
startCursors(const ValidatedProgram& prog, std::vector<Cursor>& cursor)
{
    cursor.assign(prog.sections.size(), Cursor{});
    for (std::size_t vpp = 0; vpp < cursor.size(); ++vpp) {
        const auto& sec = prog.sections[vpp];
        cursor[vpp].sync = prog.syncs.data() + sec.first_sync;
        cursor[vpp].sync_end = cursor[vpp].sync + sec.num_syncs;
    }
}

/**
 * The rounds @p prog runs in. Each round applies every ready Signal
 * and Wait to a fixed point, visiting the VPPs in order (a signal by a
 * higher-numbered VPP can unblock a lower-numbered one), then cuts
 * each unblocked VPP's stream at its next sync point. A Wait is ready
 * once its barrier has every signal it expects, as
 * PersistentSim::barrierReady decides. Only signal counts decide a
 * round, never time, so the rounds are a function of the program.
 *
 * With @p hung_vpp >= 0 that VPP stops for good at its next Signal,
 * which is lost (an injected hang). A program that cannot finish
 * stops at the stalled round, which applies its syncs and cuts no
 * segment, and `stall` says why: HungVpp or BarrierDeadlock, naming
 * the stuck VPPs, their pcs and barriers.
 */
RoundOrder
schedule(const ValidatedProgram& prog, int hung_vpp)
{
    using common::ErrorCode;

    const int num_vpps = prog.numVpps();
    const std::vector<std::uint32_t>& expected = prog.expected_signals;
    std::vector<std::uint32_t> arrived(expected.size(), 0);
    std::vector<Cursor> cursor;
    startCursors(prog, cursor);
    auto done = [&](int vpp) {
        return cursor[static_cast<std::size_t>(vpp)].index >=
               prog.sections[static_cast<std::size_t>(vpp)]
                   .num_instructions;
    };

    RoundOrder order;
    order.syncs.reserve(prog.syncs.size());
    // Close the round under way.
    auto endRound = [&] {
        order.rounds.push_back(
            {static_cast<std::uint32_t>(order.syncs.size()),
             static_cast<std::uint32_t>(order.segments.size())});
    };

    // Bound every loop: a valid schedule consumes at least one
    // instruction per round and one sync op per fixpoint pass, so
    // exceeding these caps means the scheduler itself stopped making
    // progress -- report it instead of spinning forever.
    const std::size_t round_cap = prog.total_instructions + 2;
    const std::size_t pass_cap = prog.total_instructions +
                                 static_cast<std::size_t>(num_vpps) + 2;
    bool hang_triggered = false;
    for (std::size_t round = 0;; ++round) {
        if (round + 1 > round_cap) {
            order.stall = {ErrorCode::BarrierDeadlock,
                           common::detail::concat(
                               "scheduler exceeded ", round_cap,
                               " rounds without completing")};
            return order;
        }

        // 1. Barrier traffic to a fixed point.
        std::size_t passes = 0;
        bool sync_progress = true;
        while (sync_progress) {
            if (++passes > pass_cap) {
                endRound();
                order.stall = {ErrorCode::BarrierDeadlock,
                               "barrier fixpoint failed to converge"};
                return order;
            }
            sync_progress = false;
            for (int vpp = 0; vpp < num_vpps; ++vpp) {
                Cursor& c = cursor[static_cast<std::size_t>(vpp)];
                while (c.atSync()) {
                    const std::uint32_t b = c.sync->barrier;
                    if (c.sync->op == Opcode::Signal) {
                        if (vpp == hung_vpp) {
                            // The injected hang: the CTA died before
                            // the atomicAdd, so the signal is lost
                            // and this VPP makes no further progress.
                            hang_triggered = true;
                            break;
                        }
                        ++arrived[b];
                    } else if (!(expected[b] > 0 &&
                                 arrived[b] >= expected[b])) {
                        break; // unready, as PersistentSim decides
                    }
                    order.syncs.push_back(static_cast<std::uint32_t>(vpp));
                    c.passSync();
                    sync_progress = true;
                }
            }
        }

        // 2. Cut runnable per-VPP segments for this round.
        bool all_done = true;
        const std::size_t cut_before = order.segments.size();
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            if (done(vpp))
                continue;
            all_done = false;
            // Blocked on an unready barrier, or hung at its lost
            // signal and never resuming.
            Cursor& c = cursor[static_cast<std::size_t>(vpp)];
            if (c.atSync())
                continue;
            c.cut(vpp, prog.sections[static_cast<std::size_t>(vpp)]);
            order.segments.push_back(static_cast<std::uint32_t>(vpp));
        }
        endRound();
        if (order.segments.size() > cut_before)
            continue;
        if (all_done)
            break;

        // Stall: no VPP can run and at least one has not finished.
        // Diagnose which VPPs are stuck on which barriers (the
        // watchdog's report) as a recoverable error.
        std::ostringstream why;
        int stuck = 0, first_vpp = -1;
        long long first_pc = -1, first_barrier = -1;
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            if (done(vpp))
                continue;
            // Every unfinished VPP stands at a sync point here.
            const Cursor& c = cursor[static_cast<std::size_t>(vpp)];
            const std::uint32_t pc = c.index;
            const std::uint32_t b = c.sync->barrier;
            if (stuck == 0) {
                first_vpp = hang_triggered ? hung_vpp : vpp;
                first_pc = pc;
                first_barrier = b;
            }
            if (++stuck <= 6) {
                why << (stuck == 1 ? "" : "; ") << "vpp " << vpp
                    << (vpp == hung_vpp ? " (hung)" : "") << " at pc "
                    << pc << " on barrier " << b << " (" << arrived[b]
                    << "/" << expected[b] << " signals)";
            }
        }
        if (stuck > 6)
            why << "; ... " << (stuck - 6) << " more";
        order.stall = {hang_triggered ? ErrorCode::HungVpp
                                      : ErrorCode::BarrierDeadlock,
                       common::detail::concat(
                           hang_triggered ? "VPP hung (lost signal); "
                                          : "barrier deadlock; ",
                           stuck, " VPP(s) stuck: ", why.str()),
                       first_vpp, first_pc, first_barrier};
        break;
    }
    // Cached for the program's lifetime: drop the growth slack.
    order.rounds.shrink_to_fit();
    order.segments.shrink_to_fit();
    return order;
}

/**
 * Copy @p script's words and validate the copy in one read-only pass,
 * recording each VPP's sync table. Errors name the VPP, the
 * instruction index (pc) and, for barrier errors, the barrier.
 */
common::Result<std::unique_ptr<ValidatedProgram>>
validate(const Script& script, const graph::Model& model,
         std::uint64_t cap)
{
    using common::ErrorCode;
    using common::Status;

    auto prog = std::make_unique<ValidatedProgram>();
    const int num_vpps = script.numVpps();
    prog->sections.resize(static_cast<std::size_t>(num_vpps));
    std::size_t total_words = 0;
    for (int vpp = 0; vpp < num_vpps; ++vpp) {
        const auto [begin, end] = script.vppStream(vpp);
        total_words += static_cast<std::size_t>(end - begin);
    }
    prog->words.reserve(total_words);
    for (int vpp = 0; vpp < num_vpps; ++vpp) {
        const auto [begin, end] = script.vppStream(vpp);
        auto& sec = prog->sections[static_cast<std::size_t>(vpp)];
        sec.first_word = prog->words.size();
        sec.num_words = static_cast<std::uint32_t>(end - begin);
        prog->words.insert(prog->words.end(), begin, end);
    }
    prog->expected_signals = script.expectedSignals();
    const auto& expected = prog->expected_signals;
    std::vector<std::uint64_t> emitted(expected.size(), 0);

    for (int vpp = 0; vpp < num_vpps; ++vpp) {
        auto& sec = prog->sections[static_cast<std::size_t>(vpp)];
        sec.first_sync = prog->syncs.size();
        const std::uint32_t* const begin =
            prog->words.data() + sec.first_word;
        const std::uint32_t* const end = begin + sec.num_words;
        std::uint32_t idx = 0;
        for (const std::uint32_t* pc = begin; pc != end; ++idx) {
            const Opcode op = preambleOpcode(pc[0]);
            const std::uint32_t imm = preambleImm(pc[0]);
            if (op >= Opcode::NumOpcodes)
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(
                               "bad opcode ", static_cast<int>(op),
                               " in script stream"))
                    .withVpp(vpp)
                    .withPc(idx);
            const OpcodeInfo& info = opcodeInfo(op);
            const int n = operandWords(op);
            if (end - pc < 1 + n)
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(
                               "truncated instruction stream: ",
                               info.name, " needs ", n,
                               " operand words"))
                    .withVpp(vpp)
                    .withPc(idx);
            if (info.imm == ImmKind::Barrier) {
                if (imm >= expected.size())
                    return Status::failure(
                               ErrorCode::MalformedScript,
                               common::detail::concat(
                                   "barrier index out of range (",
                                   expected.size(),
                                   " barriers declared)"))
                        .withVpp(vpp)
                        .withPc(idx)
                        .withBarrier(imm);
                if (op == Opcode::Signal)
                    ++emitted[imm];
                prog->syncs.push_back(
                    {static_cast<std::uint32_t>(pc - begin), idx, imm,
                     op});
            }
            const std::uint32_t* const operands = pc + 1;

            // Range validation (decoder hardening): every param-id
            // immediate and operand offset/length pair is checked
            // here, before the interpreter can dereference it, so a
            // corrupted or adversarial script surfaces a structured
            // MalformedScript error instead of out-of-bounds access.
            // Each operand's kind in the encoding table fixes the
            // span it must fit in the pool.
            auto fail_decode = [&](const char* what) {
                return Status::failure(
                           ErrorCode::MalformedScript,
                           common::detail::concat(what, " in ",
                                                  info.name))
                    .withVpp(vpp)
                    .withPc(idx);
            };
            std::uint64_t rows = 0, cols = 0;
            if (info.imm == ImmKind::Matrix) {
                if (imm >= model.numParams())
                    return fail_decode("param id out of range");
                const auto& shape = model.param(imm).shape;
                rows = shape.rows();
                cols = shape.cols();
            }
            // A label indexes the imm-length logits; an empty vector
            // has no valid label.
            if (imm == 0 &&
                std::ranges::count(info.operands, OperandKind::Label))
                return fail_decode("empty logits vector");
            for (int i = 0; i < n; ++i) {
                const std::uint64_t off = operands[i];
                std::uint64_t len = 0;
                switch (info.operands[i]) {
                  case OperandKind::Vec: len = imm; break;
                  case OperandKind::Scalar: len = 1; break;
                  case OperandKind::Rows: len = rows; break;
                  case OperandKind::Cols: len = cols; break;
                  case OperandKind::Label:
                    if (off >= imm)
                        return fail_decode("label out of range");
                    continue;
                  default: continue; // float bits: not an address
                }
                if (off >= cap || off + len > cap)
                    return fail_decode("operand out of pool range");
            }
            pc += 1 + n;
        }
        sec.num_instructions = idx;
        sec.num_syncs =
            static_cast<std::uint32_t>(prog->syncs.size() - sec.first_sync);
        prog->total_instructions += idx;
    }

    // Whole-script barrier consistency: each barrier must receive
    // exactly the declared number of signals. Fewer would deadlock a
    // waiter; more would over-trip the device-side atomic counter.
    for (std::size_t b = 0; b < expected.size(); ++b)
        if (emitted[b] != expected[b])
            return Status::failure(
                       ErrorCode::MalformedScript,
                       common::detail::concat(
                           "barrier ", b, " expects ", expected[b],
                           " signal(s) but the script emits ",
                           emitted[b]))
                .withBarrier(static_cast<long long>(b));
    prog->schedule = schedule(*prog, -1);
    return prog;
}

} // namespace

struct ScriptExecutor::Kept
{
    /** The price table, and the plan digest, device spec (whole:
     *  Device::disableSms edits it in place) and parameter shapes it
     *  was filled from. */
    std::unique_ptr<const MatrixCostMemo> prices;
    std::uint64_t plan_digest = 0;
    gpusim::DeviceSpec spec;
    std::uint64_t shapes = 0;
    std::vector<Cursor> cursors;
    std::vector<Segment> segments;
};

ScriptExecutor::ScriptExecutor(gpusim::Device& device, int threads,
                               ScriptCache* shared_cache)
    : device_(device), threads_(common::resolveThreadCount(threads)),
      kept_(std::make_unique<Kept>()), cache_(shared_cache)
{
    if (cache_ == nullptr) {
        owned_cache_ = std::make_unique<ScriptCache>();
        cache_ = owned_cache_.get();
    }
}

ScriptExecutor::~ScriptExecutor() = default;

common::Result<std::shared_ptr<const ValidatedProgram>>
ScriptExecutor::validated(const GeneratedBatch& batch,
                          const graph::Model& model)
{
    // A generated batch brings its key: a digest of what the
    // generator read, so identical batches -- replayed minibatches,
    // data-parallel replicas -- share one entry without hashing their
    // words. A hit runs the cache's own copy and never reads this
    // script's words, so a key collision can at worst run another
    // validated program.
    const std::uint64_t cap = device_.memory().capacity();
    const std::uint64_t h =
        batch.cache_key
            ? *batch.cache_key
            : ScriptCache::key(batch.script.checksum(), model, cap);
    if (batch.missed_in != cache_)
        if (auto hit = cache_->find(h))
            return hit;
    auto prog = validate(batch.script, model, cap);
    if (!prog.ok())
        return prog.takeStatus();
    std::unique_ptr<ValidatedProgram> p = std::move(prog).value();
    p->fwd_instructions = batch.stats.fwd_instructions;
    p->bwd_instructions = batch.stats.bwd_instructions;
    p->update_instructions = batch.stats.update_instructions;
    return cache_->insert(h, std::move(p));
}

common::Result<RunResult>
ScriptExecutor::run(const CompiledKernel& kernel,
                    const GeneratedBatch& batch, graph::Model& model,
                    graph::ComputationGraph& cg, bool apply_updates)
{
    using common::ErrorCode;
    using common::Status;

    const DistributionPlan& plan = kernel.plan;
    const auto& spec = device_.spec();
    const int num_vpps = plan.numVpps();
    auto& mem = device_.memory();
    // Holding the shared_ptr keeps the program valid even if another
    // cache user triggers an evict-all while this run is in flight.
    std::shared_ptr<const ValidatedProgram> prog_guard = batch.program;
    if (!prog_guard) {
        auto val = validated(batch, model);
        if (!val.ok())
            return val.takeStatus();
        prog_guard = std::move(val).value();
    }
    const ValidatedProgram& prog = *prog_guard;
    if (prog.numVpps() != num_vpps)
        return Status::failure(
            ErrorCode::MalformedScript,
            common::detail::concat("script has ", prog.numVpps(),
                                   " VPP streams but the plan runs ",
                                   num_vpps, " VPPs"));

    gpusim::PersistentSim psim(spec, num_vpps, plan.ctasPerSm());
    for (std::size_t b = 0; b < prog.expected_signals.size(); ++b)
        psim.setExpectedSignals(
            b, static_cast<int>(prog.expected_signals[b]));
    Kept& kept = *kept_;
    const std::uint64_t shapes = ScriptCache::shapesDigest(model);
    if (!kept.prices || kept.plan_digest != plan.digest() ||
        kept.spec != spec || kept.shapes != shapes) {
        kept.prices = std::make_unique<const MatrixCostMemo>(plan, model,
                                                             psim);
        kept.plan_digest = plan.digest();
        kept.spec = spec;
        kept.shapes = shapes;
    }
    const MatrixCostMemo& memo = *kept.prices;

    // Tracing. VPP clocks restart at zero for every kernel; anchoring
    // them at the device's current busy time makes successive batches
    // land one after another on a single trace timeline. Emission
    // only *reads* simulated state, so RunResult is bitwise identical
    // with tracing on or off (trace_test pins this).
    obs::Tracer* const tracer = device_.tracer();
    const double trace_base = device_.busyUs();
    psim.setTracer(tracer, trace_base);
    if (tracer)
        tracer->instant(
            obs::kLaneHost, "host", "decode", trace_base,
            static_cast<std::int64_t>(prog.total_instructions),
            static_cast<double>(num_vpps));

    RunResult result;

    // -- Prologue: script fetch, cached-weight load, grad-reg init.
    // A VPP stages its script section in shared memory; sections
    // longer than its shared-memory slice are fetched in multiple
    // rounds by an outer loop (Section III-B2), each round paying a
    // dependent-load latency.
    const double shared_budget =
        static_cast<double>(spec.shared_bytes_per_sm) /
        plan.ctasPerSm();
    auto chargePrologue = [&](int vpp) {
        const double script_bytes =
            4.0 * static_cast<double>(
                      prog.sections[static_cast<std::size_t>(vpp)]
                          .num_words);
        const double weight_bytes = plan.cachedWeightBytes(vpp);
        const double fetch_rounds =
            std::max(1.0, std::ceil(script_bytes / shared_budget));
        KernelCost prologue;
        prologue.dram_load_bytes = script_bytes + weight_bytes;
        prologue.latency_hops = 1.0 + fetch_rounds;
        psim.chargeInstruction(vpp, prologue);
        device_.addLoad(MemSpace::Script, script_bytes);
        device_.addLoad(MemSpace::Weights, weight_bytes);
    };
    for (int vpp = 0; vpp < num_vpps; ++vpp)
        chargePrologue(vpp);

    // Injected DRAM ECC error on one VPP's cached-weight load: the
    // error is *detected* (SECDED reports it), so the VPP simply
    // re-fetches its rows from the DRAM master copy -- a second
    // prologue charge and no functional damage.
    if (gpusim::FaultInjector* inj = device_.faults()) {
        if (auto bad = inj->corruptWeightLoad(num_vpps)) {
            chargePrologue(*bad);
            ++result.weight_reloads;
        }
    }

    std::vector<Cursor>& cursor = kept.cursors;
    startCursors(prog, cursor);

    // Injected hang: one VPP (drawn among those that signal at all)
    // permanently stops at its next Signal, which is therefore lost.
    // The schedule downstream of that barrier starves, and this run's
    // own schedule ends there with a recoverable HungVpp error.
    std::optional<RoundOrder> hung;
    if (gpusim::FaultInjector* inj = device_.faults()) {
        std::vector<int> eligible;
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            const Cursor& c = cursor[static_cast<std::size_t>(vpp)];
            if (std::any_of(c.sync, c.sync_end, [](const SyncPoint& sp) {
                    return sp.op == Opcode::Signal;
                }))
                eligible.push_back(vpp);
        }
        if (auto hang = inj->drawHang(eligible))
            hung = schedule(prog, *hang);
    }
    const RoundOrder& order = hung ? *hung : prog.schedule;

    const bool func = device_.functional();
    // Fresh sinks per run: a functional run grows each arena to its
    // largest phase's deferred sums, which kept sinks would hold
    // between runs.
    std::vector<VppSink> sinks(static_cast<std::size_t>(num_vpps));

    // Execute the non-sync instructions in words [pc, end) of @p
    // vpp's section. Traffic goes to the VPP's private sink; per-VPP
    // timeline charges are contention-free by construction (each VPP
    // is interpreted by exactly one worker per round). Accumulations
    // whose target may be shared across VPPs within a phase (the
    // += family and MatVecT's dx) are computed into sink scratch and
    // applied in fixed order by the scheduler, so float reductions
    // never depend on thread timing.
    // Each instruction adds two charges to its VPP's clock, in this
    // order: the decode overhead, then the instruction's time.
    auto exec_words = [&](int vpp, const std::uint32_t* pc,
                          const std::uint32_t* end, VppSink& sink) {
        while (pc != end) {
            const Opcode op = preambleOpcode(pc[0]);
            const std::uint32_t imm = preambleImm(pc[0]);
            const std::uint32_t* const w = pc + 1;
            pc = w + operandWords(op);
            psim.charge(vpp, kDecodeUs);
            switch (op) {
              case Opcode::MatVec: {
                const MatrixCost& c = memo.at(vpp, op, imm);
                if (func) {
                    const auto& p = model.param(imm);
                    for (const auto& s : plan.slices(vpp, imm, false))
                        tensor::gemvRows(mem.data(p.value),
                                         mem.data(w[0]), mem.data(w[1]),
                                         s.first_row,
                                         s.first_row + s.num_rows,
                                         p.shape.cols());
                }
                sink.traffic.addLoad(MemSpace::Activations, c.col_bytes);
                sink.traffic.addStore(MemSpace::Activations, c.row_bytes);
                psim.charge(vpp, c.us);
                break;
              }
              case Opcode::MatVecT: {
                const MatrixCost& c = memo.at(vpp, op, imm);
                if (func) {
                    // dx is shared by every VPP holding rows of W
                    // (remote atomics on the GPU): accumulate this
                    // VPP's partial into scratch, reduced in VPP order
                    // at the phase boundary.
                    const auto& p = model.param(imm);
                    float* scratch = sink.claim(w[1], p.shape.cols());
                    for (const auto& s : plan.slices(vpp, imm, false))
                        tensor::gemvTransposedAccumRows(
                            mem.data(p.value), mem.data(w[0]), scratch,
                            s.first_row, s.first_row + s.num_rows,
                            p.shape.cols());
                }
                sink.traffic.addLoad(MemSpace::ActGrads, c.row_bytes);
                sink.traffic.addStore(MemSpace::ActGrads, c.col_bytes);
                sink.traffic.addAtomics(c.atomics);
                psim.charge(vpp, c.us);
                break;
              }
              case Opcode::Outer: {
                const MatrixCost& c = memo.at(vpp, op, imm);
                if (func) {
                    // dW lives in registers: the plan gives each of
                    // its row blocks to exactly one VPP, and no other
                    // instruction in the kernel touches a weight
                    // matrix's p.grad, so the product accumulates
                    // straight into this VPP's own rows of it.
                    const auto& p = model.param(imm);
                    for (const auto& s : plan.slices(vpp, imm, true))
                        tensor::outerAccumRows(
                            mem.data(p.grad), mem.data(w[0]),
                            mem.data(w[1]), s.first_row,
                            s.first_row + s.num_rows, p.shape.cols());
                }
                sink.traffic.addLoad(MemSpace::ActGrads, c.row_bytes);
                sink.traffic.addLoad(MemSpace::Activations, c.col_bytes);
                psim.charge(vpp, c.us);
                break;
              }
              default: {
                // Every imm-length instruction is charged from its
                // cost row: each field is a per-element coefficient
                // times the length.
                const OpCost& c = kOpCosts[static_cast<std::size_t>(op)];
                const double len = static_cast<double>(imm);
                KernelCost cost;
                cost.latency_hops = 0.0;
                cost.flops = c.flops * len;
                cost.dram_load_bytes =
                    (c.loads[0].bytes + c.loads[1].bytes) * len;
                cost.dram_store_bytes =
                    c.store.bytes * len + c.store_fixed;
                for (const Stream& load : c.loads)
                    sink.traffic.addLoad(load.space, load.bytes * len);
                sink.traffic.addStore(c.store.space,
                                      cost.dram_store_bytes);
                if (func)
                    vectorPayload(op, imm, w, mem, sink, model,
                                  apply_updates);
                psim.chargeInstruction(vpp, cost);
              }
            }
        }
    };

    // Counter samples carry the device's *absolute* per-space byte
    // totals (not deltas), so the latest sample always equals the
    // TrafficStats accounting exactly -- the reconciliation the
    // metrics tests assert against table1_weight_loads.
    auto emitDramCounters = [&]() {
        if (!tracer)
            return;
        const double ts = device_.busyUs();
        const auto& traffic = device_.traffic();
        for (std::size_t i = 0;
             i < gpusim::TrafficStats::kNumSpaces; ++i) {
            const auto space = static_cast<MemSpace>(i);
            const double loads = traffic.loadBytes(space);
            const double stores = traffic.storeBytes(space);
            if (loads > 0.0)
                tracer->counter(obs::kLaneDevice, "dram.load",
                                gpusim::memSpaceName(space), ts,
                                loads);
            if (stores > 0.0)
                tracer->counter(obs::kLaneDevice, "dram.store",
                                gpusim::memSpaceName(space), ts,
                                stores);
        }
    };

    // -- Phase-scheduled interpretation, round by round as the
    // schedule orders it. Every round: apply its Signal/Wait traffic
    // serially (barrier state and timeline clamps stay
    // single-threaded), then cut each unblocked VPP's stream at its
    // next sync point and execute the segments concurrently. A
    // segment only becomes runnable once every barrier ordered before
    // it has fully released, which is exactly the inter-VPP
    // dependency structure the script generator encodes -- so
    // functional results and per-VPP timelines match the serial
    // round-robin interpreter.
    std::vector<Segment>& segments = kept.segments;
    std::size_t next_sync = 0, next_segment = 0;
    for (const RoundOrder::Round& round : order.rounds) {
        // 1. The round's Signals and Waits, in the schedule's order.
        for (; next_sync < round.syncs_end; ++next_sync) {
            const int vpp = static_cast<int>(order.syncs[next_sync]);
            Cursor& c = cursor[static_cast<std::size_t>(vpp)];
            if (c.sync->op == Opcode::Signal)
                psim.signal(c.sync->barrier, vpp);
            else
                psim.wait(c.sync->barrier, vpp);
            c.passSync();
        }

        // 2. Cut each runnable VPP's segment from its cursor.
        segments.clear();
        std::size_t round_instructions = 0;
        for (; next_segment < round.segments_end; ++next_segment) {
            const int vpp = static_cast<int>(order.segments[next_segment]);
            const Segment seg = cursor[static_cast<std::size_t>(vpp)].cut(
                vpp, prog.sections[static_cast<std::size_t>(vpp)]);
            segments.push_back(seg);
            round_instructions += seg.end_index - seg.begin_index;
        }

        // 3. Execute the round's segments, concurrently when the
        // round carries enough work to amortize the worker wake-up.
        auto run_segment = [&](std::size_t i) {
            const Segment& seg = segments[i];
            VppSink& sink =
                sinks[static_cast<std::size_t>(seg.vpp)];
            const std::uint32_t* const words =
                prog.words.data() +
                prog.sections[static_cast<std::size_t>(seg.vpp)]
                    .first_word;
            const double seg_start = psim.timeOf(seg.vpp);
            exec_words(seg.vpp, words + seg.begin_word,
                       words + seg.end_word, sink);
            const std::uint32_t count = seg.end_index - seg.begin_index;
            sink.instructions += count;
            // Emitted from whichever worker ran the segment (the
            // per-thread shards absorb that); the event *content* is
            // thread-count independent because the VPP timeline is.
            if (tracer)
                tracer->complete(
                    seg.vpp, "vpp", "segment",
                    trace_base + seg_start,
                    psim.timeOf(seg.vpp) - seg_start,
                    static_cast<std::int64_t>(seg.begin_index),
                    static_cast<double>(count));
        };
        if (threads_ > 1 && segments.size() > 1 &&
            round_instructions >= kMinParallelInstructions) {
            if (!pool_)
                pool_ =
                    std::make_unique<common::ThreadPool>(threads_);
            pool_->parallelFor(segments.size(), run_segment);
        } else {
            for (std::size_t i = 0; i < segments.size(); ++i)
                run_segment(i);
        }

        // 4. Deterministic reduction: apply the round's deferred
        // accumulations in (VPP, program-order) order -- segments are
        // already sorted by VPP index.
        for (const Segment& seg : segments) {
            VppSink& sink =
                sinks[static_cast<std::size_t>(seg.vpp)];
            for (const PendingAccum& pa : sink.pending)
                tensor::accum(mem.data(pa.target),
                              sink.arena.data() + pa.arena_pos, pa.len);
            sink.pending.clear();
            sink.arena.clear();
        }
    }
    // A stalled schedule ends at the stalled round, after the rounds
    // before it and its syncs ran. That partial execution still
    // happened on the device: merge the sinks' traffic and charge the
    // elapsed makespan, so the wasted attempt shows up in simulated
    // recovery overhead exactly like a real launch-and-kill would.
    if (order.stall.code != ErrorCode::Ok) {
        for (const VppSink& sink : sinks)
            device_.traffic().merge(sink.traffic);
        KernelCost launch_only;
        launch_only.latency_hops = 0.0;
        device_.launchKernel(launch_only);
        device_.chargeTime(psim.makespan());
        emitDramCounters();
        const common::ErrorInfo& why = order.stall;
        return Status::failure(why.code, why.message)
            .withVpp(why.vpp)
            .withPc(why.pc)
            .withBarrier(why.barrier);
    }

    // Merge per-VPP accounting in VPP order (fixed-order reduction:
    // identical totals for every thread count).
    for (const VppSink& sink : sinks) {
        device_.traffic().merge(sink.traffic);
        result.instructions += sink.instructions;
    }

    // -- Epilogue: apply register-cached gradients onto the DRAM
    // master copies (store-only: both W and dW live in registers).
    // A timing-only device charges the cost but runs no float math.
    if (plan.gradientsCached()) {
        if (func && apply_updates)
            for (graph::ParamId m : model.weightMatrices()) {
                auto& p = model.param(m);
                tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad),
                                  p.shape.size(),
                                  model.learning_rate,
                                  model.weight_decay);
            }
        for (int vpp = 0; vpp < num_vpps; ++vpp) {
            psim.charge(vpp, memo.epilogueUs(vpp));
            device_.addStore(MemSpace::Weights,
                             plan.cachedWeightBytes(vpp));
        }
    }

    result.makespan_us = psim.makespan();
    result.mean_vpp_us = psim.meanVppTime();
    result.kernel_us = spec.kernel_launch_us + result.makespan_us;
    {
        KernelCost launch_only;
        launch_only.latency_hops = 0.0;
        device_.launchKernel(launch_only);
        device_.chargeTime(result.makespan_us);
    }
    if (tracer)
        tracer->complete(
            obs::kLaneDevice, "gpu", "persistent_kernel",
            trace_base, result.kernel_us,
            static_cast<std::int64_t>(result.instructions),
            result.makespan_us, result.mean_vpp_us);

    // -- Uncached-gradient strategy: staged GEMMs (the CUBLAS
    // substitute) followed by dense matrix updates (Section III-C2).
    if (!plan.gradientsCached()) {
        for (const auto& st : batch.gemm_staging) {
            auto& p = model.param(st.matrix);
            const double r = p.shape.rows(), c = p.shape.cols();
            const double k = st.count;
            if (func)
                tensor::gemmAccumABt(mem.data(p.grad),
                                     mem.data(st.lhs_base),
                                     mem.data(st.rhs_base),
                                     p.shape.rows(), p.shape.cols(),
                                     st.count);
            KernelCost gemm;
            gemm.flops = 2.0 * r * c * k;
            gemm.dram_load_bytes = 4.0 * (r * k + c * k + r * c);
            gemm.dram_store_bytes = 4.0 * r * c;
            gemm.parallel_threads = r * c;
            device_.addLoad(MemSpace::Workspace, 4.0 * (r + c) * k);
            device_.addLoad(p.gradSpace(), 4.0 * r * c);
            device_.addStore(p.gradSpace(), 4.0 * r * c);
            result.extra_kernel_us += device_.launchKernel(gemm);
        }
        for (graph::ParamId m : model.weightMatrices()) {
            auto& p = model.param(m);
            if (func && apply_updates)
                tensor::sgdUpdate(mem.data(p.value), mem.data(p.grad),
                                  p.shape.size(),
                                  model.learning_rate,
                                  model.weight_decay);
            KernelCost update;
            update.flops = 3.0 * static_cast<double>(p.shape.size());
            update.dram_load_bytes = 2.0 * p.bytes();
            update.dram_store_bytes = p.bytes();
            update.parallel_threads =
                static_cast<double>(p.shape.size());
            device_.addLoad(MemSpace::Weights, p.bytes());
            device_.addLoad(MemSpace::WeightGrads, p.bytes());
            device_.addStore(MemSpace::Weights, p.bytes());
            result.extra_kernel_us += device_.launchKernel(update);
        }
    }

    emitDramCounters();
    result.loss = mem.data(cg.node(batch.loss_node).fwd)[0];
    return result;
}

} // namespace vpps

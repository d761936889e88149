#include "vpps/script_gen.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "exec/kernels.hpp"
#include "graph/level_sort.hpp"
#include "vpps/script_cache.hpp"

namespace vpps {

using gpusim::DeviceMemory;
using graph::Node;
using graph::NodeId;
using graph::OpType;

namespace {

/** Load-metric weight for cached-matrix operations: the paper
 *  associates a higher load with them to reflect their computational
 *  intensity relative to vector ops (Section III-B1). */
constexpr double kMatrixLoadWeight = 4.0;

/**
 * Emits one phase's instructions straight into the script. A VPP's
 * first instruction in the phase is preceded by its wait on the
 * previous phase's barrier; flush() closes the phase with one signal
 * per participating VPP.
 */
class PhaseBuilder
{
  public:
    explicit PhaseBuilder(Script& script)
        : script_(script),
          joined_(static_cast<std::size_t>(script.numVpps()), false)
    {
    }

    void
    add(int vpp, Opcode op, std::uint32_t imm,
        std::initializer_list<std::uint32_t> operands)
    {
        if (!joined_[static_cast<std::size_t>(vpp)]) {
            joined_[static_cast<std::size_t>(vpp)] = true;
            participants_.push_back(vpp);
            if (prev_barrier_ >= 0)
                script_.emit(vpp, Opcode::Wait,
                             static_cast<std::uint32_t>(prev_barrier_),
                             nullptr, 0);
        }
        script_.emit(vpp, op, imm, operands.begin(),
                     static_cast<int>(operands.size()));
        ++count_;
    }

    /** @return the phase's instructions so far, excluding sync. */
    std::size_t count() const { return count_; }

    /** @return the number of barriers (closed phases) so far. */
    int barriers() const { return next_barrier_; }

    /** Close the phase: each participant signals its barrier. */
    void
    flush()
    {
        if (participants_.empty())
            return;
        for (int vpp : participants_) {
            script_.emit(vpp, Opcode::Signal,
                         static_cast<std::uint32_t>(next_barrier_),
                         nullptr, 0);
            joined_[static_cast<std::size_t>(vpp)] = false;
        }
        script_.setExpectedSignals(
            static_cast<std::size_t>(next_barrier_),
            static_cast<int>(participants_.size()));
        prev_barrier_ = next_barrier_;
        ++next_barrier_;
        participants_.clear();
        count_ = 0;
    }

  private:
    Script& script_;
    std::vector<bool> joined_;
    std::vector<int> participants_;
    int prev_barrier_ = -1;
    int next_barrier_ = 0;
    std::size_t count_ = 0;
};

/** Tracks accumulated per-VPP load for min-load targeting. */
class LoadBalancer
{
  public:
    explicit LoadBalancer(int num_vpps)
        : load_(static_cast<std::size_t>(num_vpps), 0.0)
    {
    }

    /** @return the VPP with the minimum accumulated load. */
    int
    pickMin()
    {
        int best = 0;
        for (int v = 1; v < static_cast<int>(load_.size()); ++v)
            if (load_[static_cast<std::size_t>(v)] <
                load_[static_cast<std::size_t>(best)])
                best = v;
        return best;
    }

    void
    charge(int vpp, double amount)
    {
        load_[static_cast<std::size_t>(vpp)] += amount;
    }

  private:
    std::vector<double> load_;
};

// The emission digest hashes every field of a node and a parameter
// except the ones named below. A new field must be hashed in
// emissionDigest() or added to this list; then update the sizes.
// Unhashed: Node::level (computeLevels() derives it from args) and
// Parameter::name.
static_assert(sizeof(Node) == 40 + sizeof(std::vector<NodeId>),
              "graph::Node changed: hash the new field in emissionDigest");
static_assert(sizeof(graph::Parameter) == 24 + sizeof(std::string),
              "graph::Parameter changed: hash the new field in "
              "emissionDigest");

/** Running 64-bit digest: an xor-multiply step, then a xor-shift so
 *  every input bit reaches the low bits as well. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        h_ = (h_ ^ v) * 0x9E3779B97F4A7C15ull;
        h_ ^= h_ >> 32;
    }

    void
    add(std::uint32_t lo, std::uint32_t hi)
    {
        add(lo | static_cast<std::uint64_t>(hi) << 32);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * Digest of everything emission reads besides the HostSpec, which
 * only prices scheduling: the distribution plan, each parameter's
 * kind, shape and offsets, the loss node, and every node's op,
 * liveness, operands and offsets. The GEMM staging areas are bumped
 * from the pool right after placement, so the node offsets fix them
 * too. Equal digests therefore emit equal words (DESIGN.md section
 * 4.11).
 */
std::uint64_t
emissionDigest(const DistributionPlan& plan, const graph::Model& model,
               const graph::ComputationGraph& cg,
               const std::vector<bool>& live, NodeId loss)
{
    Digest d;
    d.add(plan.digest());
    d.add(model.numParams());
    for (graph::ParamId pid = 0; pid < model.numParams(); ++pid) {
        const auto& p = model.param(pid);
        d.add(static_cast<std::uint64_t>(p.kind));
        d.add(p.shape.rows(), p.shape.cols());
        d.add(p.value, p.grad);
    }
    d.add(loss, static_cast<std::uint32_t>(cg.size()));
    for (NodeId id = 0; id < cg.size(); ++id) {
        const Node& n = cg.node(id);
        d.add(static_cast<std::uint64_t>(n.op) |
              static_cast<std::uint64_t>(live[id]) << 8 |
              static_cast<std::uint64_t>(n.args.size()) << 16);
        d.add(n.shape.rows(), n.shape.cols());
        d.add(n.param, n.aux);
        d.add(n.fwd, n.grad);
        d.add(n.aux_mem);
        for (NodeId a : n.args)
            d.add(a);
    }
    return d.value();
}

} // namespace

ScriptGenerator::ScriptGenerator(const CompiledKernel& kernel,
                                 const gpusim::HostSpec& host)
    : kernel_(kernel), host_(host)
{
}

void
ScriptGenerator::chargeScheduling(GenStats& stats) const
{
    // Host scheduling time model (Fig 10's fwd/bwd scheduling bars):
    // level sort + per-node encode + min-load bookkeeping.
    const double live = static_cast<double>(stats.live_nodes);
    const double ws = host_.workingSetFactor(stats.live_nodes);
    stats.fwd_sched_us =
        ws * (live * host_.sched_node_us +
              static_cast<double>(stats.fwd_instructions) *
                  host_.sched_instr_us);
    stats.bwd_sched_us =
        ws * (live * host_.sched_node_us * 0.8 +
              static_cast<double>(stats.bwd_instructions) *
                  host_.sched_instr_us);
}

GeneratedBatch
ScriptGenerator::generate(gpusim::Device& device, graph::Model& model,
                          graph::ComputationGraph& cg, graph::Expr loss,
                          ScriptCache* cache) const
{
    const DistributionPlan& plan = kernel_.plan;
    const int num_vpps = plan.numVpps();
    GeneratedBatch out(num_vpps);
    out.loss_node = loss.id;

    const std::vector<bool> live = graph::reachableFrom(cg, loss.id);
    out.stats.input_bytes = exec::placeForward(device, model, cg, live);
    out.stats.zeroed_bytes =
        exec::placeBackward(device, model, cg, live, loss.id);

    std::size_t live_count = 0;
    for (bool b : live)
        live_count += b ? 1 : 0;
    out.stats.live_nodes = live_count;

    // Staging areas for the uncached-gradient GEMM fallback.
    std::map<graph::ParamId, std::size_t> staging_index;
    std::vector<std::uint32_t> staging_cursor;
    if (!plan.gradientsCached()) {
        std::map<graph::ParamId, std::uint32_t> uses;
        for (NodeId id = 0; id < cg.size(); ++id)
            if (live[id] && cg.node(id).op == OpType::MatVec)
                ++uses[cg.node(id).param];
        for (const auto& [m, count] : uses) {
            const auto& p = model.param(m);
            GemmStaging st;
            st.matrix = m;
            st.count = count;
            st.lhs_base = device.memory().allocate(
                static_cast<std::size_t>(p.shape.rows()) * count,
                gpusim::MemSpace::Workspace);
            st.rhs_base = device.memory().allocate(
                static_cast<std::size_t>(p.shape.cols()) * count,
                gpusim::MemSpace::Workspace);
            staging_index[m] = out.gemm_staging.size();
            out.gemm_staging.push_back(st);
        }
        staging_cursor.assign(out.gemm_staging.size(), 0);
    }

    // Key the batch by what emission reads. On a hit the cached
    // program stands in for the words, and the counts its first
    // emission recorded for this one's.
    out.cache_key =
        ScriptCache::key(emissionDigest(plan, model, cg, live, loss.id),
                         model, device.memory().capacity());
    if (cache != nullptr) {
        if (auto hit = cache->find(*out.cache_key)) {
            out.stats.fwd_instructions = hit->fwd_instructions;
            out.stats.bwd_instructions = hit->bwd_instructions;
            out.stats.update_instructions = hit->update_instructions;
            out.stats.barriers = hit->expected_signals.size();
            out.stats.script_bytes = hit->bytes();
            out.program = std::move(hit);
            chargeScheduling(out.stats);
            return out;
        }
        out.missed_in = cache;
    }

    const auto levels = graph::computeLevels(cg);
    LoadBalancer balance(num_vpps);
    PhaseBuilder phase(out.script);

    auto vec_load = [](const Node& n) {
        return static_cast<double>(n.shape.size()) *
               std::max<std::size_t>(n.args.size(), 1);
    };

    // Emit a single-VPP vector instruction at the min-load VPP.
    auto emit_vec = [&](Opcode op, std::uint32_t imm,
                        std::initializer_list<std::uint32_t> operands,
                        double load) -> int {
        const int vpp = balance.pickMin();
        phase.add(vpp, op, imm, operands);
        balance.charge(vpp, load);
        return vpp;
    };

    // Emit a cooperative matrix instruction on every VPP caching rows
    // of the matrix (or of its gradient for outer products). Each
    // (matrix, gradient) pair's fan-out -- the VPPs and the load each
    // is charged -- is built on first use.
    struct FanOut
    {
        int vpp;
        double load;
    };
    std::vector<std::vector<FanOut>> fan_outs(2 * model.numParams());
    auto emit_matrix = [&](Opcode op, graph::ParamId m, bool gradient,
                           std::uint32_t op_a, std::uint32_t op_b) {
        auto& targets = fan_outs[2 * m + (gradient ? 1 : 0)];
        if (targets.empty()) {
            const auto& p = model.param(m);
            for (int vpp : plan.vppsOf(m, gradient)) {
                const double rows = plan.rowsOn(vpp, m, gradient);
                targets.push_back(
                    {vpp, kMatrixLoadWeight * rows * p.shape.cols()});
            }
        }
        for (const FanOut& t : targets) {
            phase.add(t.vpp, op, m, {op_a, op_b});
            balance.charge(t.vpp, t.load);
        }
    };

    auto emit_forward_node = [&](NodeId id) {
        Node& n = cg.node(id);
        switch (n.op) {
          case OpType::Input:
          case OpType::ParamVec:
            break;
          case OpType::Lookup: {
            const auto& p = model.param(n.param);
            const std::uint32_t src =
                p.value + n.aux * p.shape.cols();
            emit_vec(Opcode::Copy,
                     static_cast<std::uint32_t>(n.shape.size()),
                     {n.fwd, src}, vec_load(n));
            break;
          }
          case OpType::MatVec:
            emit_matrix(Opcode::MatVec, n.param, false,
                        cg.node(n.args[0]).fwd, n.fwd);
            break;
          case OpType::AddN: {
            const auto len =
                static_cast<std::uint32_t>(n.shape.size());
            const int vpp = balance.pickMin();
            std::size_t i = 0;
            if (n.args.size() >= 3) {
                phase.add(vpp, Opcode::Add3, len,
                          {n.fwd, cg.node(n.args[0]).fwd,
                           cg.node(n.args[1]).fwd,
                           cg.node(n.args[2]).fwd});
                i = 3;
            } else {
                phase.add(vpp, Opcode::Add2, len,
                          {n.fwd, cg.node(n.args[0]).fwd,
                           cg.node(n.args[1]).fwd});
                i = 2;
            }
            for (; i < n.args.size(); ++i)
                phase.add(vpp, Opcode::Accum, len,
                          {n.fwd, cg.node(n.args[i]).fwd});
            balance.charge(vpp, vec_load(n));
            break;
          }
          case OpType::CwiseMult:
            emit_vec(Opcode::Mul,
                     static_cast<std::uint32_t>(n.shape.size()),
                     {n.fwd, cg.node(n.args[0]).fwd,
                      cg.node(n.args[1]).fwd},
                     vec_load(n));
            break;
          case OpType::Tanh:
          case OpType::Sigmoid:
          case OpType::Relu: {
            const Opcode op = n.op == OpType::Tanh ? Opcode::Tanh
                              : n.op == OpType::Sigmoid
                                  ? Opcode::Sigmoid
                                  : Opcode::Relu;
            emit_vec(op, static_cast<std::uint32_t>(n.shape.size()),
                     {n.fwd, cg.node(n.args[0]).fwd}, vec_load(n));
            break;
          }
          case OpType::Scale:
            emit_vec(Opcode::Scale,
                     static_cast<std::uint32_t>(n.shape.size()),
                     {n.fwd, cg.node(n.args[0]).fwd, n.aux},
                     vec_load(n));
            break;
          case OpType::Slice:
            emit_vec(Opcode::Copy,
                     static_cast<std::uint32_t>(n.shape.size()),
                     {n.fwd, cg.node(n.args[0]).fwd + n.aux},
                     vec_load(n));
            break;
          case OpType::Concat: {
            const int vpp = balance.pickMin();
            std::uint32_t pos = 0;
            for (NodeId a : n.args) {
                const Node& arg = cg.node(a);
                phase.add(vpp, Opcode::Copy,
                          static_cast<std::uint32_t>(arg.shape.size()),
                          {n.fwd + pos, arg.fwd});
                pos += static_cast<std::uint32_t>(arg.shape.size());
            }
            balance.charge(vpp, vec_load(n));
            break;
          }
          case OpType::PickNLS: {
            const Node& logits = cg.node(n.args[0]);
            emit_vec(Opcode::PickNLS,
                     static_cast<std::uint32_t>(logits.shape.size()),
                     {logits.fwd, n.aux_mem, n.fwd, n.aux},
                     vec_load(n));
            break;
          }
          default:
            common::panic("ScriptGenerator: unhandled forward op ",
                          graph::opName(n.op));
        }
    };

    auto grad_of = [&](NodeId id) { return cg.node(id).grad; };
    auto accum_op = [&](NodeId target) {
        return cg.node(target).op == OpType::ParamVec
                   ? Opcode::AccumParam
                   : Opcode::Accum;
    };

    auto emit_backward_node = [&](NodeId id) {
        Node& n = cg.node(id);
        switch (n.op) {
          case OpType::Input:
          case OpType::ParamVec:
            break;
          case OpType::Lookup: {
            const auto& p = model.param(n.param);
            const std::uint32_t dst = p.grad + n.aux * p.shape.cols();
            emit_vec(Opcode::AccumParam,
                     static_cast<std::uint32_t>(n.shape.size()),
                     {dst, n.grad}, vec_load(n));
            break;
          }
          case OpType::MatVec: {
            const Node& x = cg.node(n.args[0]);
            if (x.grad != DeviceMemory::kNullOffset)
                emit_matrix(Opcode::MatVecT, n.param, false, n.grad,
                            x.grad);
            if (plan.gradientsCached()) {
                emit_matrix(Opcode::Outer, n.param, true, n.grad,
                            x.fwd);
            } else {
                // Stage (dy, x) for the post-kernel GEMM.
                const auto& p = model.param(n.param);
                auto& st = out.gemm_staging[staging_index.at(n.param)];
                const std::uint32_t idx =
                    staging_cursor[staging_index.at(n.param)]++;
                emit_vec(Opcode::Copy, p.shape.rows(),
                         {st.lhs_base + idx * p.shape.rows(), n.grad},
                         p.shape.rows());
                emit_vec(Opcode::Copy, p.shape.cols(),
                         {st.rhs_base + idx * p.shape.cols(), x.fwd},
                         p.shape.cols());
            }
            break;
          }
          case OpType::AddN: {
            const auto len =
                static_cast<std::uint32_t>(n.shape.size());
            for (NodeId a : n.args) {
                if (grad_of(a) == DeviceMemory::kNullOffset)
                    continue;
                emit_vec(accum_op(a), len, {grad_of(a), n.grad},
                         static_cast<double>(len));
            }
            break;
          }
          case OpType::CwiseMult: {
            const auto len =
                static_cast<std::uint32_t>(n.shape.size());
            const NodeId a = n.args[0], b = n.args[1];
            if (grad_of(a) != DeviceMemory::kNullOffset)
                emit_vec(Opcode::MulAccum, len,
                         {grad_of(a), n.grad, cg.node(b).fwd},
                         2.0 * len);
            if (grad_of(b) != DeviceMemory::kNullOffset)
                emit_vec(Opcode::MulAccum, len,
                         {grad_of(b), n.grad, cg.node(a).fwd},
                         2.0 * len);
            break;
          }
          case OpType::Tanh:
          case OpType::Sigmoid:
          case OpType::Relu: {
            const NodeId a = n.args[0];
            if (grad_of(a) == DeviceMemory::kNullOffset)
                break;
            const Opcode op = n.op == OpType::Tanh ? Opcode::TanhBack
                              : n.op == OpType::Sigmoid
                                  ? Opcode::SigmoidBack
                                  : Opcode::ReluBack;
            emit_vec(op, static_cast<std::uint32_t>(n.shape.size()),
                     {grad_of(a), n.fwd, n.grad},
                     2.0 * static_cast<double>(n.shape.size()));
            break;
          }
          case OpType::Scale: {
            const NodeId a = n.args[0];
            if (grad_of(a) != DeviceMemory::kNullOffset)
                emit_vec(Opcode::ScaleAccum,
                         static_cast<std::uint32_t>(n.shape.size()),
                         {grad_of(a), n.grad, n.aux},
                         static_cast<double>(n.shape.size()));
            break;
          }
          case OpType::Slice: {
            const NodeId a = n.args[0];
            if (grad_of(a) != DeviceMemory::kNullOffset)
                emit_vec(Opcode::Accum,
                         static_cast<std::uint32_t>(n.shape.size()),
                         {grad_of(a) + n.aux, n.grad},
                         static_cast<double>(n.shape.size()));
            break;
          }
          case OpType::Concat: {
            std::uint32_t pos = 0;
            for (NodeId a : n.args) {
                const Node& arg = cg.node(a);
                if (grad_of(a) != DeviceMemory::kNullOffset)
                    emit_vec(accum_op(a),
                             static_cast<std::uint32_t>(
                                 arg.shape.size()),
                             {grad_of(a), n.grad + pos},
                             static_cast<double>(arg.shape.size()));
                pos += static_cast<std::uint32_t>(arg.shape.size());
            }
            break;
          }
          case OpType::PickNLS: {
            const Node& logits = cg.node(n.args[0]);
            if (logits.grad != DeviceMemory::kNullOffset)
                emit_vec(Opcode::PickNLSBack,
                         static_cast<std::uint32_t>(
                             logits.shape.size()),
                         {n.aux_mem, n.grad, logits.grad, n.aux},
                         static_cast<double>(logits.shape.size()));
            break;
          }
          default:
            common::panic("ScriptGenerator: unhandled backward op ",
                          graph::opName(n.op));
        }
    };

    // Forward: level-by-level traversal (Fig 6(b-d)).
    std::size_t fwd_instr = 0;
    for (const auto& level : levels) {
        for (NodeId id : level)
            if (live[id])
                emit_forward_node(id);
        fwd_instr += phase.count();
        phase.flush();
    }
    out.stats.fwd_instructions = fwd_instr;

    // Backward: the levels in reverse order (Section III-B1).
    std::size_t bwd_instr = 0;
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        for (NodeId id : *it)
            if (live[id])
                emit_backward_node(id);
        bwd_instr += phase.count();
        phase.flush();
    }
    out.stats.bwd_instructions = bwd_instr;

    // Update phase: biases densely, embedding tables sparsely (only
    // rows touched this batch). Cached matrices are updated by the
    // kernel epilogue straight from registers; uncached-gradient
    // matrices are updated by fb() after the staged GEMMs.
    std::map<graph::ParamId, std::vector<std::uint32_t>> touched_rows;
    for (NodeId id = 0; id < cg.size(); ++id) {
        if (!live[id])
            continue;
        const Node& n = cg.node(id);
        if (n.op == OpType::Lookup)
            touched_rows[n.param].push_back(n.aux);
    }
    for (graph::ParamId pid = 0; pid < model.numParams(); ++pid) {
        const auto& p = model.param(pid);
        if (p.kind == graph::Parameter::Kind::Bias) {
            emit_vec(Opcode::UpdateVec,
                     static_cast<std::uint32_t>(p.shape.size()),
                     {p.value, p.grad},
                     static_cast<double>(p.shape.size()));
        } else if (p.kind == graph::Parameter::Kind::Lookup) {
            auto it = touched_rows.find(pid);
            if (it == touched_rows.end())
                continue;
            auto& rows = it->second;
            std::sort(rows.begin(), rows.end());
            rows.erase(std::unique(rows.begin(), rows.end()),
                       rows.end());
            for (std::uint32_t row : rows) {
                const std::uint32_t off = row * p.shape.cols();
                emit_vec(Opcode::UpdateVec, p.shape.cols(),
                         {p.value + off, p.grad + off},
                         static_cast<double>(p.shape.cols()));
            }
        }
    }
    out.stats.update_instructions = phase.count();
    phase.flush();
    out.stats.barriers = static_cast<std::size_t>(phase.barriers());

    out.script.seal();
    out.stats.script_bytes = out.script.bytes();
    chargeScheduling(out.stats);
    return out;
}

} // namespace vpps

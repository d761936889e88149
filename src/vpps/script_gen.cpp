#include "vpps/script_gen.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "exec/kernels.hpp"
#include "graph/level_sort.hpp"
#include "vpps/lowering.hpp"
#include "vpps/script_cache.hpp"

namespace vpps {

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

/**
 * Accumulated load per VPP, with the minimum found in logarithmic
 * time: a tournament tree over (load, VPP index) whose every node
 * holds the winner of its subtree, the lower load and, among equal
 * loads, the lower index. The root is the first of equal minima, the
 * VPP a scan from index 0 finds. A matrix product's fan-out adds to
 * up to every VPP at once, and the lowering emits such products in
 * runs, so add() only marks the tree stale and the next addToMin()
 * replays every match once.
 */
class LoadTree
{
  public:
    explicit LoadTree(int num_vpps)
    {
        while (leaves_ < static_cast<std::size_t>(num_vpps))
            leaves_ *= 2;
        // Padding leaves carry an infinite load and never win.
        load_.assign(leaves_, std::numeric_limits<double>::infinity());
        std::fill_n(load_.begin(), num_vpps, 0.0);
        win_.resize(2 * leaves_);
        for (std::size_t i = 0; i < leaves_; ++i)
            win_[leaves_ + i] = static_cast<int>(i);
    }

    /** Add @p load to VPP @p vpp's. */
    void
    add(int vpp, double load)
    {
        load_[static_cast<std::size_t>(vpp)] += load;
        stale_ = true;
    }

    /** Add @p load to the VPP with the minimum load, the first of
     *  equals, and @return that VPP. */
    int
    addToMin(double load)
    {
        if (stale_) {
            for (std::size_t n = leaves_ - 1; n >= 1; --n)
                win_[n] = match(n);
            stale_ = false;
        }
        const int vpp = win_[1];
        load_[static_cast<std::size_t>(vpp)] += load;
        // It won every match on its path: replay them all.
        for (std::size_t n = (leaves_ + static_cast<std::size_t>(vpp)) / 2;
             n >= 1; n /= 2)
            win_[n] = match(n);
        return vpp;
    }

  private:
    /** The winner of node @p n: its right child's winner only on a
     *  strictly lower load, since the left subtree holds the lower
     *  indices. */
    int
    match(std::size_t n) const
    {
        const int a = win_[2 * n], b = win_[2 * n + 1];
        return load_[static_cast<std::size_t>(b)] <
                       load_[static_cast<std::size_t>(a)]
                   ? b
                   : a;
    }

    std::size_t leaves_ = 1;
    std::vector<double> load_; //!< per leaf
    std::vector<int> win_;     //!< per node, root at 1, leaves last
    bool stale_ = true;
};

/**
 * The generator's lowering sink (vpps/lowering.hpp): places each group
 * of vector instructions on the VPP with the minimum accumulated load,
 * and each matrix product on every VPP caching rows of its matrix (of
 * its gradient, for Outer), charging each the paper's load metric.
 * Without cached gradients an Outer becomes two staging copies of
 * (dy, x) for the post-kernel GEMM (Section III-C2).
 */
class Placer
{
  public:
    Placer(const DistributionPlan& plan, const graph::Model& model,
           PhaseBuilder& phase, const std::vector<GemmStaging>& staging)
        : plan_(plan), model_(model), phase_(phase),
          load_(plan.numVpps()),
          fan_outs_(2 * model.numParams()),
          staging_(staging), slot_(model.numParams()),
          cursor_(staging.size(), 0)
    {
        for (std::size_t i = 0; i < staging.size(); ++i)
            slot_[staging[i].matrix] = i;
    }

    void
    group(double load)
    {
        vpp_ = load_.addToMin(load);
    }

    void
    emit(Opcode op, std::uint32_t imm,
         std::initializer_list<std::uint32_t> operands)
    {
        phase_.add(vpp_, op, imm, operands);
    }

    void
    matrix(Opcode op, graph::ParamId m, std::uint32_t a, std::uint32_t b)
    {
        const bool gradient = op == Opcode::Outer;
        if (gradient && !plan_.gradientsCached()) {
            stage(m, a, b);
            return;
        }
        // Each (matrix, gradient) pair's fan-out -- the VPPs and the
        // load each is charged -- is built on first use.
        auto& targets = fan_outs_[2 * m + (gradient ? 1 : 0)];
        if (targets.empty()) {
            const auto& p = model_.param(m);
            for (int vpp : plan_.vppsOf(m, gradient)) {
                const double rows = plan_.rowsOn(vpp, m, gradient);
                targets.push_back(
                    {vpp, kMatrixLoadWeight * rows * p.shape.cols()});
            }
        }
        for (const FanOut& t : targets) {
            phase_.add(t.vpp, op, m, {a, b});
            load_.add(t.vpp, t.load);
        }
    }

  private:
    struct FanOut
    {
        int vpp;
        double load;
    };

    /** Copy (dy, x) into the next staging column of matrix @p m. */
    void
    stage(graph::ParamId m, std::uint32_t dy, std::uint32_t x)
    {
        const auto& p = model_.param(m);
        const GemmStaging& st = staging_[slot_[m]];
        const std::uint32_t idx = cursor_[slot_[m]]++;
        group(p.shape.rows());
        emit(Opcode::Copy, p.shape.rows(),
             {st.lhs_base + idx * p.shape.rows(), dy});
        group(p.shape.cols());
        emit(Opcode::Copy, p.shape.cols(),
             {st.rhs_base + idx * p.shape.cols(), x});
    }

    const DistributionPlan& plan_;
    const graph::Model& model_;
    PhaseBuilder& phase_;
    LoadTree load_; //!< accumulated load per VPP
    std::vector<std::vector<FanOut>> fan_outs_;
    const std::vector<GemmStaging>& staging_;
    std::vector<std::size_t> slot_;     //!< staging index per matrix
    std::vector<std::uint32_t> cursor_; //!< next column per staging
    int vpp_ = 0;                       //!< the current group's VPP
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
            out.gemm_staging.push_back(st);
        }
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
    PhaseBuilder phase(out.script);
    Placer placer(plan, model, phase, out.gemm_staging);

    // Forward: level-by-level traversal (Fig 6(b-d)).
    std::size_t fwd_instr = 0;
    for (const auto& level : levels) {
        for (NodeId id : level)
            if (live[id])
                lowerForward(model, cg, cg.node(id), placer);
        fwd_instr += phase.count();
        phase.flush();
    }
    out.stats.fwd_instructions = fwd_instr;

    // Backward: the levels in reverse order (Section III-B1).
    std::size_t bwd_instr = 0;
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        for (NodeId id : *it)
            if (live[id])
                lowerBackward(model, cg, cg.node(id), placer);
        bwd_instr += phase.count();
        phase.flush();
    }
    out.stats.bwd_instructions = bwd_instr;

    // Update phase: biases densely, embedding tables sparsely (only
    // rows touched this batch). Cached matrices are updated by the
    // kernel epilogue straight from registers; uncached-gradient
    // matrices are updated by fb() after the staged GEMMs.
    const auto touched_rows = exec::touchedRows(model, cg, live);
    for (graph::ParamId pid = 0; pid < model.numParams(); ++pid) {
        const auto& p = model.param(pid);
        if (p.kind == graph::Parameter::Kind::Bias) {
            const auto len = static_cast<std::uint32_t>(p.shape.size());
            placer.group(len);
            placer.emit(Opcode::UpdateVec, len, {p.value, p.grad});
        }
        for (std::uint32_t row : touched_rows[pid]) {
            const std::uint32_t off = row * p.shape.cols();
            placer.group(p.shape.cols());
            placer.emit(Opcode::UpdateVec, p.shape.cols(),
                        {p.value + off, p.grad + off});
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

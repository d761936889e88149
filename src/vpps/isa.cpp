#include "vpps/isa.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hpp"

namespace vpps {

namespace {

using enum ImmKind;
using enum OperandKind;

// One row per opcode, in Opcode order. Matrix operands name the
// vector each word points at (MatVec: x, y; MatVecT: dy, dx;
// Outer: dy, x).
constexpr OpcodeInfo kOpcodes[] = {
    {Opcode::Nop, "nop", Length, {}},
    {Opcode::MatVec, "mvm", Matrix, {Cols, Rows}},
    {Opcode::MatVecT, "mvm_t", Matrix, {Rows, Cols}},
    {Opcode::Outer, "outer", Matrix, {Rows, Cols}},
    {Opcode::Copy, "copy", Length, {Vec, Vec}},
    {Opcode::Accum, "accum", Length, {Vec, Vec}},
    {Opcode::AccumParam, "accum_param", Length, {Vec, Vec}},
    {Opcode::Add2, "add2", Length, {Vec, Vec, Vec}},
    {Opcode::Add3, "add3", Length, {Vec, Vec, Vec, Vec}},
    {Opcode::Mul, "mul", Length, {Vec, Vec, Vec}},
    {Opcode::MulAccum, "mul_accum", Length, {Vec, Vec, Vec}},
    {Opcode::Tanh, "tanh", Length, {Vec, Vec}},
    {Opcode::TanhBack, "tanh_back", Length, {Vec, Vec, Vec}},
    {Opcode::Sigmoid, "sigmoid", Length, {Vec, Vec}},
    {Opcode::SigmoidBack, "sigmoid_back", Length, {Vec, Vec, Vec}},
    {Opcode::Relu, "relu", Length, {Vec, Vec}},
    {Opcode::ReluBack, "relu_back", Length, {Vec, Vec, Vec}},
    {Opcode::Scale, "scale", Length, {Vec, Vec, FloatBits}},
    {Opcode::ScaleAccum, "scale_accum", Length, {Vec, Vec, FloatBits}},
    {Opcode::PickNLS, "pick_nls", Length, {Vec, Vec, Scalar, Label}},
    {Opcode::PickNLSBack, "pick_nls_back", Length,
     {Vec, Scalar, Vec, Label}},
    {Opcode::UpdateVec, "update_vec", Length, {Vec, Vec}},
    {Opcode::Signal, "signal", Barrier, {}},
    {Opcode::Wait, "wait", Barrier, {}},
};
static_assert(indexedByOpcode(kOpcodes));

} // namespace

// Operand word counts, derived from kOpcodes at compile time:
// operandWords() runs for every emitted and interpreted instruction.
const std::array<std::uint8_t, std::size(kOpcodes)>
    detail::kOperandWords = [] {
        std::array<std::uint8_t, std::size(kOpcodes)> words{};
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] = static_cast<std::uint8_t>(std::ranges::count_if(
                kOpcodes[i].operands,
                [](OperandKind k) { return k != None; }));
        return words;
    }();

const OpcodeInfo&
opcodeInfo(Opcode op)
{
    if (op >= Opcode::NumOpcodes)
        common::panic("invalid opcode ", static_cast<int>(op));
    return kOpcodes[static_cast<std::size_t>(op)];
}

const char*
opcodeName(Opcode op)
{
    return op < Opcode::NumOpcodes ? opcodeInfo(op).name : "invalid";
}

void
detail::invalidOperandWordsOpcode(Opcode op)
{
    common::panic("operandWords: invalid opcode ", static_cast<int>(op));
}

std::uint32_t
packPreamble(Opcode op, std::uint32_t imm)
{
    if (imm > 0x00FFFFFFu)
        common::panic("packPreamble: immediate ", imm,
                      " exceeds 24 bits");
    return (static_cast<std::uint32_t>(op) << 24) | imm;
}

namespace {

/** Stream buffers of the last script destroyed on this thread, kept
 *  (emptied, capacity intact) for the next script built here. */
thread_local std::vector<std::vector<std::uint32_t>> t_spare_streams;

} // namespace

Script::Script(int num_vpps)
    : num_vpps_(num_vpps), streams_(std::move(t_spare_streams))
{
    if (num_vpps <= 0)
        common::panic("Script: num_vpps must be positive");
    streams_.resize(static_cast<std::size_t>(num_vpps));
}

Script::~Script()
{
    if (streams_.empty() || !t_spare_streams.empty())
        return;
    for (auto& s : streams_)
        s.clear();
    t_spare_streams = std::move(streams_);
}

void
Script::emit(int vpp, Opcode op, std::uint32_t imm,
             const std::vector<std::uint32_t>& operands)
{
    emit(vpp, op, imm, operands.data(),
         static_cast<int>(operands.size()));
}

void
Script::emit(int vpp, Opcode op, std::uint32_t imm,
             const std::uint32_t* operands, int n_operands)
{
    if (sealed_)
        common::panic("Script::emit after seal()");
    if (n_operands != operandWords(op))
        common::panic("Script::emit: ", opcodeName(op), " takes ",
                      operandWords(op), " operands, got ", n_operands);
    auto& s = streams_.at(static_cast<std::size_t>(vpp));
    // A matrix op writes one instruction to the stream of every VPP
    // caching its rows, often over a hundred streams in turn: too
    // many for the hardware prefetcher to follow, so fetch the
    // stream's next cache line ahead of its next write.
    if (s.capacity() - s.size() > 16)
        __builtin_prefetch(s.data() + s.size() + 16, 1);
    s.push_back(packPreamble(op, imm));
    for (int i = 0; i < n_operands; ++i)
        s.push_back(operands[i]);
    ++num_instructions_;
}

void
Script::appendRawWord(int vpp, std::uint32_t word)
{
    if (sealed_)
        common::panic("Script::appendRawWord after seal()");
    streams_.at(static_cast<std::size_t>(vpp)).push_back(word);
}

void
Script::setExpectedSignals(std::size_t barrier, int count)
{
    if (barrier >= expected_signals_.size())
        expected_signals_.resize(barrier + 1, 0);
    expected_signals_[barrier] = static_cast<std::uint32_t>(count);
}

void
Script::seal()
{
    if (sealed_)
        common::panic("Script::seal called twice");
    sealed_ = true;
    // Prefix-sum header: header_[v] is the start of VPP v's stream
    // relative to the end of the header; header_[num_vpps] is the end.
    header_.reserve(streams_.size() + 1);
    std::uint32_t acc = 0;
    header_.push_back(0);
    for (const auto& s : streams_) {
        acc += static_cast<std::uint32_t>(s.size());
        header_.push_back(acc);
    }
}

std::pair<const std::uint32_t*, const std::uint32_t*>
Script::vppStream(int vpp) const
{
    if (!sealed_)
        common::panic("Script::vppStream before seal()");
    const auto& s = streams_[static_cast<std::size_t>(vpp)];
    return {s.data(), s.data() + s.size()};
}

double
Script::bytes() const
{
    if (!sealed_)
        common::panic("Script::bytes before seal()");
    return 4.0 * (static_cast<double>(header_.size()) + header_.back());
}

std::uint64_t
Script::checksum() const
{
    if (!sealed_)
        common::panic("Script::checksum before seal()");
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(num_vpps_));
    mix(header_.size() + header_.back());
    for (std::uint32_t w : header_)
        mix(w);
    for (const auto& s : streams_)
        for (std::uint32_t w : s)
            mix(w);
    return h;
}

} // namespace vpps

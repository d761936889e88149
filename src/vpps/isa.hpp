/**
 * @file
 * The virtual CISC-like vector-processor instruction set
 * (Section III-B).
 *
 * Every instruction starts with a 4-byte preamble packing the opcode
 * (8 bits) and an immediate (24 bits: tensor length, weight-matrix id,
 * or barrier index), followed by up to four 4-byte operand words --
 * memory-pool element offsets or small immediates -- for a maximum
 * instruction size of 20 bytes, matching the paper.
 *
 * A sealed script is a prefix sum of per-VPP word counts followed by
 * the per-VPP streams, so each VPP can index directly into its own
 * section (Section III-B2). The streams stay separate buffers: size
 * and checksum are those of the concatenated buffer without building
 * it.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace vpps {

/** Opcode of a scripted instruction. */
enum class Opcode : std::uint8_t
{
    Nop = 0,
    //
    // Matrix operations against register-cached weights. The preamble
    // immediate is the weight-matrix id; each participating VPP
    // operates on the rows it caches.
    //
    MatVec,       //!< y = W x            operands: x, y
    MatVecT,      //!< dx += W^T dy       operands: dy, dx (atomics)
    Outer,        //!< dWreg += dy x^T    operands: dy, x
    //
    // Element-wise vector operations; preamble immediate = length.
    //
    Copy,         //!< out = in           operands: out, in
    Accum,        //!< out += in          operands: out, in
    AccumParam,   //!< param-grad += in   operands: out, in
    Add2,         //!< out = a + b        operands: out, a, b
    Add3,         //!< out = a + b + c    operands: out, a, b, c
    Mul,          //!< out = a * b        operands: out, a, b
    MulAccum,     //!< out += a * b       operands: out, a, b
    Tanh,         //!< out = tanh(in)     operands: out, in
    TanhBack,     //!< din += dout*(1-y^2)    operands: din, y, dout
    Sigmoid,      //!< out = sigmoid(in)  operands: out, in
    SigmoidBack,  //!< din += dout*y*(1-y)    operands: din, y, dout
    Relu,         //!< out = relu(in)     operands: out, in
    ReluBack,     //!< din += dout*(y>0)  operands: din, y, dout
    Scale,        //!< out = c * in        operands: out, in, c bits
    ScaleAccum,   //!< out += c * in       operands: out, in, c bits
    //
    // Loss and parameter-update operations.
    //
    PickNLS,      //!< loss = -log softmax(x)[lbl]; ops: x, probs, loss, lbl
    PickNLSBack,  //!< dx += dloss*(p - 1_lbl); ops: probs, dloss, dx, lbl
    UpdateVec,    //!< p -= lr*(g + wd*p); ops: p, g  (biases, embed rows)
    //
    // Inter-VPP synchronization (Section III-B1); immediate = barrier.
    //
    Signal,
    Wait,
    NumOpcodes
};

/** What a preamble immediate names. */
enum class ImmKind : std::uint8_t
{
    Length,  //!< element count of the instruction's vectors
    Matrix,  //!< weight-matrix param id
    Barrier, //!< barrier index
};

/** What one operand word holds; each kind has its own decode check. */
enum class OperandKind : std::uint8_t
{
    None,      //!< no operand word in this position
    Vec,       //!< pool offset of an imm-length vector
    Scalar,    //!< pool offset of a single float
    Label,     //!< class index into the imm-length vector
    FloatBits, //!< bit pattern of a float constant
    Rows,      //!< pool offset of one float per row of the matrix
    Cols,      //!< pool offset of one float per column of the matrix
};

/**
 * How one opcode is encoded. The table of these rows in isa.cpp is
 * the only place an opcode's mnemonic, immediate and operand layout
 * are written: operandWords(), opcodeName(), the disassembler and the
 * decoder's range checks all read it.
 */
struct OpcodeInfo
{
    Opcode op;
    const char* name;
    ImmKind imm;
    OperandKind operands[4];
};

/** @return the encoding of @p op; panics on an invalid opcode. */
const OpcodeInfo& opcodeInfo(Opcode op);

/**
 * @return true when @p rows holds exactly one row per opcode, in
 * Opcode order: the invariant of every table indexed by Opcode.
 */
template <class Row, std::size_t N>
constexpr bool
indexedByOpcode(const Row (&rows)[N])
{
    if (N != static_cast<std::size_t>(Opcode::NumOpcodes))
        return false;
    for (std::size_t i = 0; i < N; ++i)
        if (rows[i].op != static_cast<Opcode>(i))
            return false;
    return true;
}

/** @return mnemonic for diagnostics and generated-source listings. */
const char* opcodeName(Opcode op);

namespace detail {

/** Operand word count per opcode, derived from the encoding table. */
extern const std::array<std::uint8_t,
                        static_cast<std::size_t>(Opcode::NumOpcodes)>
    kOperandWords;

[[noreturn]] void invalidOperandWordsOpcode(Opcode op);

} // namespace detail

/**
 * @return the number of operand words following the preamble; panics
 * on an invalid opcode. Inline: the emitter and the interpreter call
 * it once per instruction.
 */
inline int
operandWords(Opcode op)
{
    if (op >= Opcode::NumOpcodes) [[unlikely]]
        detail::invalidOperandWordsOpcode(op);
    return detail::kOperandWords[static_cast<std::size_t>(op)];
}

/** Pack a preamble word: opcode in the top 8 bits, imm in low 24. */
std::uint32_t packPreamble(Opcode op, std::uint32_t imm);

/** @return the opcode of a preamble word. */
inline Opcode
preambleOpcode(std::uint32_t word)
{
    return static_cast<Opcode>(word >> 24);
}

/** @return the 24-bit immediate of a preamble word. */
inline std::uint32_t
preambleImm(std::uint32_t word)
{
    return word & 0x00FFFFFFu;
}

/**
 * The execution script for one kernel invocation: per-VPP instruction
 * streams behind a prefix-sum header, plus barrier metadata.
 *
 * Each instruction is written once, straight into its VPP's stream.
 * The stream buffers are reused: a Script takes the buffers of the
 * last script destroyed on the same thread, so steady-state batches
 * emit into memory that is already mapped.
 */
class Script
{
  public:
    explicit Script(int num_vpps);
    ~Script();

    Script(Script&&) noexcept = default;
    Script& operator=(Script&&) noexcept = default;

    int numVpps() const { return num_vpps_; }

    /** Append an instruction to VPP @p vpp's stream. */
    void emit(int vpp, Opcode op, std::uint32_t imm,
              const std::vector<std::uint32_t>& operands);

    /** Append an instruction from a raw operand array. */
    void emit(int vpp, Opcode op, std::uint32_t imm,
              const std::uint32_t* operands, int n_operands);

    /**
     * Append one raw word to VPP @p vpp's stream with no validation.
     * Emulates a corrupted or truncated script (fault-injection and
     * malformed-script tests): emit() rejects ill-formed instructions,
     * so broken streams can only be built through this hook.
     */
    void appendRawWord(int vpp, std::uint32_t word);

    /** Declare barrier @p barrier to expect @p count signals. */
    void setExpectedSignals(std::size_t barrier, int count);

    const std::vector<std::uint32_t>& expectedSignals() const
    {
        return expected_signals_;
    }

    /**
     * Finalize the transferable form: the header (num_vpps + 1
     * prefix sums) in front of the per-VPP streams. Must be called
     * exactly once, after all emission.
     */
    void seal();

    /** @return [begin, end) word range of VPP @p vpp's stream. */
    std::pair<const std::uint32_t*, const std::uint32_t*>
    vppStream(int vpp) const;

    /** @return total script size in bytes (the H2D transfer size). */
    double bytes() const;

    /**
     * FNV-1a digest of the sealed buffer: num_vpps, the word count,
     * the header, then the streams in VPP order. The executor keys a
     * script no generator made (hand-built and fuzzed scripts) on it
     * in its validated-program cache (ScriptExecutor::validated()). A
     * generated batch is keyed by the generator's digest of its
     * inputs instead, so fb() never computes this one, and the
     * modeled transfer path computes no digest.
     */
    std::uint64_t checksum() const;

    /** @return total instruction count across all VPPs. */
    std::size_t numInstructions() const { return num_instructions_; }

  private:
    int num_vpps_;
    bool sealed_ = false;
    std::vector<std::vector<std::uint32_t>> streams_;
    std::vector<std::uint32_t> header_;
    std::vector<std::uint32_t> expected_signals_;
    std::size_t num_instructions_ = 0;
};

} // namespace vpps

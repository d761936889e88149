#include "vpps/disasm.hpp"

#include <iomanip>
#include <sstream>

namespace vpps {

namespace {

/** Short tag naming the immediate, indexed by ImmKind. */
constexpr const char* kImmTags[] = {"len", "m", "b"};

} // namespace

std::string
disassemble(const Script& script, const DisasmOptions& options)
{
    std::ostringstream out;
    for (int vpp = 0; vpp < script.numVpps(); ++vpp) {
        if (options.only_vpp >= 0 && vpp != options.only_vpp)
            continue;
        auto [pc, end] = script.vppStream(vpp);
        while (pc != end) {
            const OpcodeInfo& info = opcodeInfo(preambleOpcode(pc[0]));
            const std::uint32_t imm = preambleImm(pc[0]);
            const int n = operandWords(info.op);
            out << "vpp " << std::setw(3) << std::setfill('0') << vpp
                << std::setfill(' ') << ": " << std::left
                << std::setw(12) << info.name << std::right
                << kImmTags[static_cast<std::size_t>(info.imm)] << '='
                << imm;
            if (n > 0) {
                out << "  [";
                for (int i = 0; i < n; ++i) {
                    if (i)
                        out << ", ";
                    out << '+' << pc[1 + i];
                }
                out << ']';
            }
            if (options.show_sizes)
                out << "  ; " << 4 * (1 + n) << "B";
            out << '\n';
            pc += 1 + n;
        }
    }
    return out.str();
}

std::string
summarize(const Script& script)
{
    std::size_t signals = 0, waits = 0;
    for (int vpp = 0; vpp < script.numVpps(); ++vpp) {
        auto [pc, end] = script.vppStream(vpp);
        while (pc != end) {
            const Opcode op = preambleOpcode(pc[0]);
            signals += op == Opcode::Signal ? 1 : 0;
            waits += op == Opcode::Wait ? 1 : 0;
            pc += 1 + operandWords(op);
        }
    }
    std::ostringstream out;
    out << script.numInstructions() << " instructions over "
        << script.numVpps() << " VPPs, "
        << static_cast<std::size_t>(script.bytes()) << " bytes, "
        << script.expectedSignals().size() << " barriers (" << signals
        << " signals / " << waits << " waits)";
    return out.str();
}

} // namespace vpps

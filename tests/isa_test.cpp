/** @file Unit tests for the CISC instruction encoding and the script
 *  container (Section III-B). */
#include <gtest/gtest.h>

#include <vector>

#include "vpps/isa.hpp"

namespace {

using vpps::Opcode;
using vpps::Script;

TEST(Isa, PreambleRoundTrips)
{
    const auto word = vpps::packPreamble(Opcode::Tanh, 0x00ABCDEFu);
    EXPECT_EQ(vpps::preambleOpcode(word), Opcode::Tanh);
    EXPECT_EQ(vpps::preambleImm(word), 0x00ABCDEFu);
}

TEST(Isa, ImmediateIsLimitedTo24Bits)
{
    EXPECT_DEATH(vpps::packPreamble(Opcode::Copy, 0x01000000u),
                 "24 bits");
}

TEST(Isa, InstructionsFitInTwentyBytes)
{
    // The paper caps instructions at 20 bytes: preamble + <= 4 words.
    for (int op = 0; op < static_cast<int>(Opcode::NumOpcodes); ++op) {
        const int words = vpps::operandWords(static_cast<Opcode>(op));
        EXPECT_GE(words, 0);
        EXPECT_LE(4 * (1 + words), 20)
            << vpps::opcodeName(static_cast<Opcode>(op));
    }
}

TEST(Isa, ExampleEncodingSizesMatchPaper)
{
    // "for a tanh() operation, the framework generates 12 bytes":
    // 4 preamble + 4 output + 4 input.
    EXPECT_EQ(4 * (1 + vpps::operandWords(Opcode::Tanh)), 12);
    // Signal and wait are 4 bytes each.
    EXPECT_EQ(vpps::operandWords(Opcode::Signal), 0);
    EXPECT_EQ(vpps::operandWords(Opcode::Wait), 0);
}

/** The three-VPP script the layout tests share. */
Script
threeVppScript()
{
    Script script(3);
    script.emit(0, Opcode::Tanh, 16, {100, 200});
    script.emit(2, Opcode::Signal, 0, {});
    script.emit(0, Opcode::Wait, 0, {});
    script.seal();
    return script;
}

TEST(Script, PrefixSumHeaderIndexesStreams)
{
    const Script script = threeVppScript();

    auto [b0, e0] = script.vppStream(0);
    ASSERT_EQ(e0 - b0, 4); // tanh(3) + wait(1)
    EXPECT_EQ(vpps::preambleOpcode(b0[0]), Opcode::Tanh);
    EXPECT_EQ(b0[1], 100u);
    EXPECT_EQ(b0[2], 200u);
    EXPECT_EQ(vpps::preambleOpcode(b0[3]), Opcode::Wait);

    auto [b1, e1] = script.vppStream(1);
    EXPECT_EQ(b1, e1);

    auto [b2, e2] = script.vppStream(2);
    ASSERT_EQ(e2 - b2, 1);
    EXPECT_EQ(vpps::preambleOpcode(b2[0]), Opcode::Signal);

    EXPECT_EQ(script.numInstructions(), 3u);
    // Header (num_vpps + 1 prefix sums) plus 5 stream words.
    EXPECT_DOUBLE_EQ(script.bytes(), 4.0 * (4 + 5));
}

TEST(Script, ChecksumHashesTheConcatenatedBuffer)
{
    // The transferable buffer of Section III-B2: the prefix-sum
    // header [0, len0, len0+len1, total], then the streams in VPP
    // order. The digest covers num_vpps, the buffer's word count and
    // every word, though the streams are never concatenated.
    const Script script = threeVppScript();
    std::vector<std::uint32_t> buffer = {0, 4, 4, 5};
    for (int vpp = 0; vpp < script.numVpps(); ++vpp) {
        auto [b, e] = script.vppStream(vpp);
        buffer.insert(buffer.end(), b, e);
    }
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(3);
    mix(buffer.size());
    for (std::uint32_t w : buffer)
        mix(w);
    EXPECT_EQ(script.checksum(), h);
    EXPECT_DOUBLE_EQ(script.bytes(), 4.0 * buffer.size());
}

TEST(Script, OperandArityIsEnforced)
{
    Script script(1);
    EXPECT_DEATH(script.emit(0, Opcode::Tanh, 4, {1}), "takes");
}

TEST(Script, EmitAfterSealPanics)
{
    Script script(1);
    script.seal();
    EXPECT_DEATH(script.emit(0, Opcode::Nop, 0, {}), "seal");
}

TEST(Script, ExpectedSignalsAreRecorded)
{
    Script script(2);
    script.setExpectedSignals(0, 2);
    script.setExpectedSignals(3, 1);
    ASSERT_EQ(script.expectedSignals().size(), 4u);
    EXPECT_EQ(script.expectedSignals()[0], 2u);
    EXPECT_EQ(script.expectedSignals()[1], 0u);
    EXPECT_EQ(script.expectedSignals()[3], 1u);
}

TEST(Script, AllOpcodesHaveNames)
{
    for (int op = 0; op < static_cast<int>(Opcode::NumOpcodes); ++op) {
        const std::string name =
            vpps::opcodeName(static_cast<Opcode>(op));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "invalid");
    }
}

} // namespace

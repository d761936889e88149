/**
 * @file
 * Script disassembler: renders a sealed execution script as
 * human-readable text, one line per instruction, grouped by VPP.
 *
 * Debug/teaching tool: lets a user see exactly what the host encoded
 * for each virtual processor (Fig 6(d)'s listing, reconstructed from
 * the bytes), and powers the golden-script tests.
 */
#pragma once

#include <string>

#include "vpps/isa.hpp"

namespace vpps {

/** Options controlling the rendering. */
struct DisasmOptions
{
    /** Print only this VPP's stream (-1 = all). */
    int only_vpp = -1;

    /** Annotate each instruction with its byte size. */
    bool show_sizes = false;
};

/**
 * Disassemble a sealed script. A VPP with an empty stream prints no
 * line.
 *
 * Format, per instruction:
 *   vpp 003: mvm        m=2      [x=+4096, y=+8192]
 *   vpp 003: signal     b=7
 */
std::string disassemble(const Script& script,
                        const DisasmOptions& options = {});

/** One-line summary: instruction/byte counts and barrier count. */
std::string summarize(const Script& script);

} // namespace vpps

/**
 * @file
 * vppsc -- the VPPS kernel/script inspector.
 *
 * A developer-facing CLI that exposes what the library does behind
 * the two calls of the user API: the register distribution plan the
 * auto-configurator picks, the specialized kernel source the JIT
 * would compile, the modeled NVRTC cost, and the disassembled
 * execution script of one real batch.
 *
 * Usage:
 *   vppsc [--app NAME] [--hidden N] [--embed N] [--rpw N]
 *         [--batch N] [--no-grad-cache]
 *         [--plan] [--jit] [--source] [--disasm [VPP]] [--summary]
 *
 * With no report flags, --plan --jit --summary is assumed.
 * Apps: Tree-LSTM (default), BiLSTM, BiLSTMwChar, BiGRU, TD-RNN,
 * TD-LSTM, RvNN. Each number must be a whole decimal in its field's
 * range (--hidden 0 and --embed 0 keep the app's default width;
 * --rpw and --batch start at 1); anything else prints the usage and
 * exits 2.
 */
#include <cctype>
#include <charconv>
#include <climits>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "vpps/disasm.hpp"
#include "vpps/script_exec.hpp"

namespace {

struct Args
{
    std::string app = "Tree-LSTM";
    std::uint32_t hidden = 0;
    std::uint32_t embed = 0;
    int rpw = 2;
    std::size_t batch = 2;
    bool grad_cache = true;
    bool show_plan = false;
    bool show_jit = false;
    bool show_source = false;
    bool show_disasm = false;
    int disasm_vpp = -1;
    bool show_summary = false;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: vppsc [--app NAME] [--hidden N] [--embed N]\n"
        << "             [--rpw N] [--batch N] [--no-grad-cache]\n"
        << "             [--plan] [--jit] [--source]\n"
        << "             [--disasm [VPP]] [--summary]\n";
    std::exit(2);
}

/** @return @p text as a whole decimal in [@p lo, @p hi]; anything
 *  else prints the usage and exits 2. */
long long
wholeDecimal(const std::string& text, long long lo, long long hi)
{
    const char* const end = text.data() + text.size();
    long long n = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || stop != end || n < lo || n > hi)
        usage();
    return n;
}

Args
parse(int argc, char** argv)
{
    Args args;
    bool any_report = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--app") {
            args.app = next();
        } else if (a == "--hidden") {
            args.hidden = static_cast<std::uint32_t>(
                wholeDecimal(next(), 0, UINT32_MAX));
        } else if (a == "--embed") {
            args.embed = static_cast<std::uint32_t>(
                wholeDecimal(next(), 0, UINT32_MAX));
        } else if (a == "--rpw") {
            args.rpw = static_cast<int>(wholeDecimal(next(), 1, INT_MAX));
        } else if (a == "--batch") {
            args.batch = static_cast<std::size_t>(
                wholeDecimal(next(), 1, LLONG_MAX));
        } else if (a == "--no-grad-cache") {
            args.grad_cache = false;
        } else if (a == "--plan") {
            args.show_plan = any_report = true;
        } else if (a == "--jit") {
            args.show_jit = any_report = true;
        } else if (a == "--source") {
            args.show_source = any_report = true;
        } else if (a == "--summary") {
            args.show_summary = any_report = true;
        } else if (a == "--disasm") {
            args.show_disasm = any_report = true;
            if (i + 1 < argc &&
                std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
                args.disasm_vpp =
                    static_cast<int>(wholeDecimal(argv[++i], 0, INT_MAX));
        } else {
            usage();
        }
    }
    if (!any_report) {
        args.show_plan = true;
        args.show_jit = true;
        args.show_summary = true;
    }
    return args;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parse(argc, argv);

    benchx::AppRig rig(args.app, args.hidden, args.embed);
    graph::Model& model = rig.model().model();

    vpps::VppsOptions opts;
    opts.rpw = args.rpw;
    opts.cache_gradients = args.grad_cache;
    auto plan_r = vpps::DistributionPlan::tryBuildAuto(
        model, rig.device().spec(), opts, args.rpw);
    if (!plan_r.ok())
        common::fatal("vppsc: ", plan_r.status().toString());
    auto plan = std::move(plan_r).value();

    if (args.show_plan) {
        common::Table t({"property", "value"});
        t.addRow({"app", args.app});
        t.addRow({"weight matrices",
                  std::to_string(model.weightMatrices().size())});
        t.addRow({"cacheable bytes",
                  common::Table::fmt(
                      model.totalWeightMatrixBytes() / 1024.0, 1) +
                      " KB"});
        t.addRow({"row_max", std::to_string(plan.rowMax())});
        t.addRow({"rpw", std::to_string(plan.rpw())});
        t.addRow({"max valid rpw",
                  std::to_string(vpps::DistributionPlan::maxRpw(
                      model, rig.device().spec(), opts))});
        t.addRow({"CTAs per SM", std::to_string(plan.ctasPerSm())});
        t.addRow({"VPPs", std::to_string(plan.numVpps())});
        t.addRow({"partitions per CTA",
                  std::to_string(plan.partitionsPerCta())});
        t.addRow({"regs/thread/partition",
                  std::to_string(plan.regsPerThreadPerPartition())});
        t.addRow({"cache regs/thread",
                  std::to_string(plan.cacheRegsPerThread())});
        t.addRow({"gradients",
                  plan.gradientsCached() ? "register-cached"
                                         : "GEMM fallback"});
        t.addRow({"slot utilization",
                  common::Table::fmt(100.0 * plan.slotUtilization(),
                                     1) +
                      " %"});
        std::cout << "== distribution plan ==\n" << t.str() << "\n";
    }

    const vpps::KernelSpecializer specializer(rig.device().spec());
    const auto kernel = specializer.specialize(model, plan);

    if (args.show_jit) {
        std::cout << "== modeled NVRTC cost ==\n"
                  << "program compilation: "
                  << common::Table::fmt(kernel.prog_compile_s, 2)
                  << " s\nmodule load:         "
                  << common::Table::fmt(kernel.module_load_s, 2)
                  << " s\ninstantiations:      "
                  << kernel.num_instantiations << "\nsource lines:  "
                  << "      " << kernel.source_lines << "\n\n";
    }
    if (args.show_source)
        std::cout << "== specialized kernel source ==\n"
                  << kernel.source << "\n";

    if (args.show_disasm || args.show_summary) {
        graph::ComputationGraph cg;
        auto loss =
            train::buildSuperGraph(rig.model(), cg, 0, args.batch);
        const gpusim::HostSpec host;
        const vpps::ScriptGenerator gen(kernel, host);
        auto gb = gen.generate(rig.device(), model, cg, loss);
        if (args.show_summary)
            std::cout << "== script summary (batch " << args.batch
                      << ") ==\n"
                      << vpps::summarize(gb.script) << "\n\n";
        if (args.show_disasm) {
            vpps::DisasmOptions d;
            d.only_vpp = args.disasm_vpp;
            d.show_sizes = true;
            std::cout << "== script disassembly ==\n"
                      << vpps::disassemble(gb.script, d);
        }
    }
    return 0;
}

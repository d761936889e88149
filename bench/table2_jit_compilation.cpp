/**
 * @file
 * Table II: JIT compilation duration of the specialized
 * forward-backward kernel for each application (program compilation =
 * CUDA C++ -> PTX, module load = PTX -> SASS). Durations are produced
 * by the NVRTC cost model in vpps::KernelSpecializer, which scales
 * with the volume of unrolled register-resident code per distinct
 * matrix shape. Each row carries the paper's two durations beside
 * the model's.
 *
 * Expected shape (paper): hidden-512 apps (TD-RNN 73.85 s, RvNN
 * 74.61 s) compile ~6.5x slower than the hidden-256 tree apps
 * (Tree-LSTM 11.10 s, TD-LSTM 11.43 s); the BiLSTM taggers sit in
 * between (~28 s); module load is roughly 0.65x of program
 * compilation throughout.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    struct App
    {
        const char* name;
        double paper_prog_s;
        double paper_load_s;
    };
    const std::vector<App> apps = {
        {"BiLSTM", 28.66, 14.65}, {"BiLSTMwChar", 28.27, 20.02},
        {"TD-RNN", 73.85, 46.69}, {"TD-LSTM", 11.43, 7.40},
        {"RvNN", 74.61, 47.78},   {"Tree-LSTM", 11.10, 7.29}};

    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "table2_jit_compilation");
    for (const App& app : apps) {
        benchx::AppRig rig(app.name);
        const vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
        auto plan = vpps::DistributionPlan::buildAuto(
            rig.model().model(), rig.device().spec(), opts, opts.rpw);
        const vpps::KernelSpecializer specializer(rig.device().spec());
        const auto kernel =
            specializer.specialize(rig.model().model(), plan);
        report.row(std::string("app=") + app.name,
                   {{"prog_compile_s", kernel.prog_compile_s},
                    {"module_load_s", kernel.module_load_s},
                    {"paper_prog_compile_s", app.paper_prog_s},
                    {"paper_module_load_s", app.paper_load_s},
                    {"instantiations",
                     static_cast<double>(kernel.num_instantiations)},
                    {"source_lines",
                     static_cast<double>(kernel.source_lines)}});
    }
    return 0;
}

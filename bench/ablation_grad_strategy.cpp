/**
 * @file
 * Ablation: gradient accumulation strategy (Section III-C2).
 *
 * When gradients fit, caching them in registers turns every
 * weight-gradient outer product into register-file traffic; when they
 * do not, the fallback stages (dy, x) pairs in DRAM and runs one
 * dense GEMM per weight matrix (the CUBLAS substitute). This bench
 * compares both strategies on the same model, plus the weight-grad
 * DRAM traffic each incurs, and reports which configurations are
 * forced into the fallback by register capacity.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "ablation_grad_strategy");
    for (const std::string app : {"Tree-LSTM", "TD-RNN"}) {
        benchx::AppRig rig(app, 0, 0, cli.functional);
        for (std::size_t batch : {std::size_t(1), std::size_t(4),
                                  std::size_t(16), std::size_t(64)}) {
            const std::size_t inputs =
                benchx::AppRig::pointInputs(batch);
            vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
            opts.host_threads = cli.threads;
            opts.cache_gradients = true;
            const auto rc = rig.measureVpps(inputs, batch, opts);

            opts.cache_gradients = false;
            rig.device().resetStats();
            const auto rg = rig.measureVpps(inputs, batch, opts);
            const double wgrad_mb =
                (rig.device().traffic().loadBytes(
                     gpusim::MemSpace::WeightGrads) +
                 rig.device().traffic().storeBytes(
                     gpusim::MemSpace::WeightGrads)) /
                (1024.0 * 1024.0) / static_cast<double>(inputs);
            report.row("app=" + app + ",batch=" + std::to_string(batch),
                       {{"cached_inputs_per_sec", rc.inputs_per_sec},
                        {"gemm_inputs_per_sec", rg.inputs_per_sec},
                        {"cached_over_gemm",
                         rc.inputs_per_sec / rg.inputs_per_sec},
                        {"gemm_wgrad_mb_per_input", wgrad_mb}});
        }
    }

    // Capacity-forced fallback: at hidden 512 the TD-LSTM's 5H x H
    // transforms no longer fit alongside their gradients.
    benchx::AppRig big("TD-LSTM", 512);
    const vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
    const auto plan = vpps::DistributionPlan::buildAuto(
        big.model().model(), big.device().spec(), opts, opts.rpw);
    report.row("app=TD-LSTM,hidden=512",
               {{"ctas_per_sm", plan.ctasPerSm()},
                {"gradients_cached",
                 plan.gradientsCached() ? 1.0 : 0.0}});
    return 0;
}

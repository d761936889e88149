/**
 * @file
 * Ablation: load granularity (rpw, rows per warp) and the
 * profile-guided tuner of Section III-A1.
 *
 * Larger rpw means fewer warps per matrix -- fewer per-VPP matrix
 * instructions and fewer remote atomic stores in the transposed
 * product -- but coarser blocks and therefore worse inter-CTA load
 * balance. The bench sweeps every valid fixed rpw (one row each) and
 * then lets the profile-guided tuner pick: one row per candidate it
 * measured (`rpw=auto,candidate=R`), then its pick (`rpw=auto`),
 * which should land on (or adjacent to) the best fixed setting.
 */
#include "bench_common.hpp"

#include <iostream>

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "ablation_rpw");
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    vpps::VppsOptions base = benchx::AppRig::defaultOptions();
    base.host_threads = cli.threads;
    const int max_rpw = vpps::DistributionPlan::maxRpw(
        rig.model().model(), rig.device().spec(), base);

    const std::size_t batch = 16;
    const std::size_t inputs = 96;
    const std::string app = "app=Tree-LSTM,batch=16,rpw=";
    for (int rpw = 1; rpw <= max_rpw; ++rpw) {
        vpps::VppsOptions opts = base;
        opts.rpw = rpw;
        const auto r = rig.measureVpps(inputs, batch, opts);
        report.row(app + std::to_string(rpw),
                   {{"sim_us", r.wall_us},
                    {"inputs_per_sec", r.inputs_per_sec},
                    {"kernel_us_per_input", r.gpu_us / inputs}});
    }

    // Profile-guided selection (rpw = 0): trains through the
    // candidates and locks the winner.
    vpps::VppsOptions auto_opts = base;
    auto_opts.rpw = 0;
    rig.device().resetStats();
    vpps::Handle handle(rig.model().model(), rig.device(), auto_opts);
    std::size_t trained = 0;
    while (!handle.tuneResult() && trained < 4096) {
        graph::ComputationGraph cg;
        auto loss = train::buildSuperGraph(rig.model(), cg, trained,
                                           batch);
        handle.fb(rig.model().model(), cg, loss);
        trained += batch;
    }
    const auto tune = handle.tuneResult();
    if (!tune) {
        std::cerr << "ablation_rpw: tuner did not converge\n";
        return 1;
    }
    for (const auto& [rpw, us] : tune->profile)
        report.row(app + "auto,candidate=" + std::to_string(rpw),
                   {{"mean_batch_us", us}});
    report.row(app + "auto",
               {{"tuned_rpw", tune->best_rpw},
                {"trained_inputs", static_cast<double>(trained)}});
    return 0;
}

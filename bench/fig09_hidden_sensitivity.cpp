/**
 * @file
 * Fig 9: sensitivity to parameter size -- Tree-LSTM throughput across
 * batch sizes for hidden-layer lengths 128, 256, and 384 (word
 * embedding fixed at 128).
 *
 * Expected shape (paper): throughput falls as hidden size grows;
 * the 256 -> 384 step costs more than 128 -> 256 because at 384 the
 * register pressure forces one CTA per SM (occupancy 12.5%) instead
 * of two (25%); at larger hidden sizes the large-batch decline
 * disappears because the GPU -- not the CPU -- is the bottleneck; and
 * VPPS stays above DyNet at every hidden size.
 *
 * Each hidden size reports the occupancy decision the distribution
 * made (`ctas_per_sm`, `gradients_cached`), then its sweep.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "fig09_hidden_sensitivity");
    for (const std::uint32_t hidden : {128u, 256u, 384u}) {
        benchx::AppRig rig("Tree-LSTM", hidden, 128, cli.functional);
        const std::string app =
            "app=Tree-LSTM,hidden=" + std::to_string(hidden);
        const vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
        const auto plan = vpps::DistributionPlan::buildAuto(
            rig.model().model(), rig.device().spec(), opts, opts.rpw);
        report.row(app,
                   {{"ctas_per_sm", plan.ctasPerSm()},
                    {"gradients_cached",
                     plan.gradientsCached() ? 1.0 : 0.0}});
        benchx::throughputSweep(report, rig, cli, app + ",",
                                ",threads=" +
                                    std::to_string(cli.threads),
                                {"DyNet-DB", "DyNet-AB"});
    }
    return 0;
}

/**
 * @file
 * Table I: megabytes of weight matrices loaded from device DRAM while
 * training 128 Tree-LSTM inputs, across batch sizes, for VPPS and
 * DyNet-AB (hidden = embed = 256). The first row is the model's
 * cacheable weight-matrix size.
 *
 * Expected shape (paper): VPPS loads exactly (weight bytes) x (number
 * of batches) -- 352.62 MB at batch 1 halving with every batch-size
 * doubling down to 2.75 MB at 128 -- while DyNet-AB starts ~8x higher
 * (2.82 GB) and shrinks only sub-linearly (692 MB at 128) because
 * larger batches convert more matrix-vector products into single
 * GEMMs that load W once per group.
 */
#include "bench_common.hpp"

namespace {

double
weightMb(const gpusim::Device& device)
{
    return device.traffic().loadBytes(gpusim::MemSpace::Weights) /
           (1024.0 * 1024.0);
}

} // namespace

int
main(int argc, char** argv)
{
    constexpr std::size_t kInputs = 128;
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "table1_weight_loads");
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
    opts.host_threads = cli.threads;

    report.row("app=Tree-LSTM",
               {{"cacheable_weight_mb",
                 rig.model().model().totalWeightMatrixBytes() /
                     (1024.0 * 1024.0)}});
    for (std::size_t batch : benchx::kBatchSizes) {
        rig.device().resetStats();
        const auto r = rig.measureVpps(kInputs, batch, opts);
        const double vpps_mb = weightMb(rig.device());

        rig.device().resetStats();
        rig.measureBaseline("DyNet-AB", kInputs, batch);
        const double ab_mb = weightMb(rig.device());

        report.row("app=Tree-LSTM,inputs=128,batch=" +
                       std::to_string(batch),
                   {{"sim_us", r.wall_us},
                    {"vpps_weight_mb", vpps_mb},
                    {"dynet_ab_weight_mb", ab_mb},
                    {"ab_over_vpps", ab_mb / vpps_mb}});
    }
    return 0;
}

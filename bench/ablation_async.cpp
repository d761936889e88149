/**
 * @file
 * Ablation: kernel-execution asynchrony (Section III-C1).
 *
 * With asynchrony on, the host generates batch i+1's script while the
 * device executes batch i, so wall time per batch approaches
 * max(cpu, gpu) instead of cpu + gpu. The benefit is largest where
 * the two are balanced (mid/large batch sizes on Tree-LSTM).
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "ablation_async");
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    for (std::size_t batch : benchx::kBatchSizes) {
        const std::size_t n = benchx::AppRig::pointInputs(batch);
        vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
        opts.host_threads = cli.threads;
        opts.async = false;
        const auto sync = rig.measureVpps(n, batch, opts);
        opts.async = true;
        const auto async = rig.measureVpps(n, batch, opts);
        report.row("app=Tree-LSTM,batch=" + std::to_string(batch),
                   {{"sync_inputs_per_sec", sync.inputs_per_sec},
                    {"async_inputs_per_sec", async.inputs_per_sec},
                    {"speedup",
                     async.inputs_per_sec / sync.inputs_per_sec}});
    }
    return 0;
}

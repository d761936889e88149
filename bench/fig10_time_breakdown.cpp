/**
 * @file
 * Fig 10: per-input execution-time breakdown of VPPS on Tree-LSTM
 * (hidden = embed = 256) across batch sizes: CPU components (graph
 * construction, forward scheduling, backward scheduling, script
 * transfer) next to the GPU kernel duration, all in us per input.
 * Host and device run concurrently, so components are reported side
 * by side as in the paper; `cpu_bound` is 1 where the CPU is the
 * bottleneck.
 *
 * Expected shape (paper): at small batches the kernel dominates (it
 * is the bottleneck); per-input kernel time shrinks with batch size
 * thanks to task parallelism while CPU scheduling time slowly grows
 * (working-set/cache effects), making the CPU the bottleneck at
 * large batches -- which explains the throughput dip at 128.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "fig10_time_breakdown");
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    vpps::VppsOptions opts = benchx::AppRig::defaultOptions();
    opts.host_threads = cli.threads;
    for (std::size_t batch : benchx::kBatchSizes) {
        const std::size_t n = benchx::AppRig::pointInputs(batch);
        rig.device().resetStats();
        vpps::Handle handle(rig.model().model(), rig.device(), opts);
        const auto r = train::measureVpps(handle, rig.model(), n, batch);
        const auto& s = handle.stats();
        const double per_input =
            static_cast<double>(s.batches) * batch;
        auto norm = [per_input](double us) { return us / per_input; };
        const double cpu = norm(s.cpuUs());
        const double gpu = norm(s.gpuUs());
        report.row("app=Tree-LSTM,batch=" + std::to_string(batch),
                   {{"sim_us", r.wall_us},
                    {"graph_us_per_input", norm(s.graph_us)},
                    {"fwd_sched_us_per_input", norm(s.fwd_sched_us)},
                    {"bwd_sched_us_per_input", norm(s.bwd_sched_us)},
                    {"transfer_us_per_input", norm(s.transfer_us)},
                    {"cpu_us_per_input", cpu},
                    {"gpu_us_per_input", gpu},
                    {"cpu_bound", cpu > gpu ? 1.0 : 0.0}});
    }
    return 0;
}

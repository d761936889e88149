/**
 * @file
 * Fig 8: Tree-LSTM training throughput (inputs/s) across batch sizes
 * 1..128 for VPPS, DyNet-DB, DyNet-AB, and TF-Fold. Hidden layer and
 * word-embedding lengths are both 256.
 *
 * Expected shape (paper): VPPS dominates everywhere, by the largest
 * factor at small batches (2.92x over the best DyNet variant at batch
 * 2, 1.16x at 128); TF-Fold trails both DyNet variants.
 *
 * Host-perf mode: `--functional --vpps-only --threads N --json`
 * measures how fast the simulator itself interprets the VPPS scripts
 * (host wall-clock per measurement point in the JSON lines), which is
 * the number the host-parallel engine improves.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "fig08_treelstm_throughput");
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    // --trace/--metrics capture the whole sweep on this rig's device
    // (flight-recorder: a long sweep keeps the most recent window).
    benchx::ObsScope obs(rig.device(), cli);
    benchx::throughputSweep(
        report, rig, cli, "app=Tree-LSTM,",
        ",threads=" + std::to_string(cli.threads) +
            ",functional=" + (cli.functional ? "1" : "0"),
        {"DyNet-DB", "DyNet-AB", "TF-Fold"});
    return 0;
}

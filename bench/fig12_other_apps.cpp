/**
 * @file
 * Fig 12: training throughput of the five other dynamic-net
 * applications across batch sizes, VPPS vs both DyNet variants.
 * Hidden and embedding lengths are 512 for RvNN and TD-RNN and 256
 * for the rest; the BiLSTM taggers use a 256-long MLP vector and
 * BiLSTMwChar a 64-long character embedding (Section IV-E).
 *
 * Expected shape (paper): VPPS wins for the majority of batch sizes
 * in every application, by the most at small batches (up to 6.08x for
 * BiLSTM at batch 2); for the apps with few distinct operation types
 * (TD-RNN, RvNN) DyNet batches easily and closes the gap at smaller
 * batch sizes than elsewhere.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "fig12_other_apps");
    for (const std::string app :
         {"BiLSTM", "BiLSTMwChar", "TD-RNN", "TD-LSTM", "RvNN"}) {
        benchx::AppRig rig(app, 0, 0, cli.functional);
        benchx::throughputSweep(report, rig, cli, "app=" + app + ",",
                                ",threads=" +
                                    std::to_string(cli.threads),
                                {"DyNet-DB", "DyNet-AB"});
    }
    return 0;
}

/**
 * @file
 * Fig 2: distribution of off-chip DRAM loads while training each of
 * the six dynamic-net applications in DyNet (agenda batching, the
 * paper's training settings).
 *
 * Expected shape (paper): weight-matrix loads account for the
 * majority of all DRAM loads in every application -- the observation
 * that motivates register-file parameter persistency.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "fig02_dram_breakdown");
    for (const std::string app : {"Tree-LSTM", "BiLSTM", "BiLSTMwChar",
                                  "TD-RNN", "TD-LSTM", "RvNN"}) {
        benchx::AppRig rig(app, 0, 0, cli.functional);
        rig.device().resetStats();
        // Paper training settings: small-batch training is the
        // regime the motivation section measures.
        const auto r = rig.measureBaseline("DyNet-AB", 32, 4);
        const auto& t = rig.device().traffic();
        const double total = t.totalLoadBytes();
        const double weights =
            t.loadBytes(gpusim::MemSpace::Weights);
        const double acts =
            t.loadBytes(gpusim::MemSpace::Activations) +
            t.loadBytes(gpusim::MemSpace::Params);
        const double grads =
            t.loadBytes(gpusim::MemSpace::ActGrads) +
            t.loadBytes(gpusim::MemSpace::WeightGrads) +
            t.loadBytes(gpusim::MemSpace::ParamGrads);
        const double other = total - weights - acts - grads;
        report.row("app=" + app,
                   {{"sim_us", r.wall_us},
                    {"weights_pct", 100.0 * weights / total},
                    {"activations_pct", 100.0 * acts / total},
                    {"gradients_pct", 100.0 * grads / total},
                    {"other_pct", 100.0 * other / total}});
    }
    return 0;
}

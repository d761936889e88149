/**
 * @file
 * Extension experiment (beyond the paper's tables): a BiGRU tagger.
 *
 * The paper's Section II argues Persistent RNN must be re-crafted by
 * an expert "for every RNN variation (for example, as in GRU)" while
 * VPPS handles them automatically. The paper never evaluates a GRU;
 * this bench does, producing the same Fig-12-style throughput series
 * so the claim can be checked: VPPS should behave on the BiGRU as it
 * does on the BiLSTM (win clearly at small batches), with zero
 * GRU-specific code in the VPPS layer.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "ext_bigru_tagger");
    benchx::AppRig rig("BiGRU", 0, 0, cli.functional);
    benchx::throughputSweep(report, rig, cli, "app=BiGRU,",
                            ",threads=" + std::to_string(cli.threads),
                            {"DyNet-DB", "DyNet-AB"});
    return 0;
}

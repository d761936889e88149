/**
 * @file
 * Robustness bench (DESIGN.md section 4.6): what does fault recovery
 * cost, and what does checkpointed replay cost?
 *
 * Part 1 trains Tree-LSTM under seeded transient fault plans of
 * increasing rate and reports throughput against the fault-free run
 * plus the per-category recovery counters -- every lost microsecond
 * is accounted to retransmits, reloads, relaunch backoff, or
 * rollback+replay, never to silent corruption (the recovered runs are
 * bitwise identical to fault-free, see fault_recovery_test.cpp).
 *
 * Part 2 turns the fault rate up past what in-batch retry absorbs
 * (scripted transfers corrupted 50% of the time with a single
 * retransmit allowed) and sweeps the checkpoint interval: frequent
 * checkpoints cost capture time, sparse ones cost replayed batches.
 */
#include "bench_common.hpp"

#include <optional>

#include "gpusim/faults.hpp"

int
main(int argc, char** argv)
{
    const auto cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "robustness_recovery");
    const std::size_t batch = 16;
    const std::size_t n = 8 * benchx::AppRig::pointInputs(batch);

    // -- Part 1: transient-fault overhead curve ---------------------
    double baseline_ips = 0.0;
    for (const double rate : {0.0, 0.01, 0.05, 0.2}) {
        benchx::AppRig rig("Tree-LSTM");
        auto opts = benchx::AppRig::defaultOptions();
        opts.host_threads = cli.threads;
        // --trace/--metrics capture the highest-rate point: the one
        // whose recovery-lane activity is worth inspecting.
        std::optional<benchx::ObsScope> obs;
        if (rate == 0.2)
            obs.emplace(rig.device(), cli);
        if (rate > 0.0)
            rig.device().installFaults(
                gpusim::FaultPlan::uniform(rate, 42));
        vpps::Handle handle(rig.model().model(), rig.device(), opts);
        const auto r =
            train::measureVpps(handle, rig.model(), n, batch);
        const auto& rec = handle.stats().recovery;
        if (rate == 0.0)
            baseline_ips = r.inputs_per_sec;
        auto count = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        report.row(
            "transient_rate=" + common::Table::fmt(rate, 2),
            {{"sim_us", r.wall_us},
             {"inputs_per_sec", r.inputs_per_sec},
             {"vs_fault_free", r.inputs_per_sec / baseline_ips},
             {"recoveries", count(rec.totalRecoveries())},
             {"recovery_ms", rec.recovery_us / 1e3},
             {"script_retransmits", count(rec.script_retransmits)},
             {"weight_reloads", count(rec.weight_reloads)},
             {"relaunches", count(rec.relaunches)},
             {"hang_recoveries", count(rec.hang_recoveries)},
             {"alloc_retries", count(rec.alloc_retries)},
             {"loss_retries", count(rec.loss_retries)},
             {"rollbacks", count(rec.rollbacks)}});
    }

    // -- Part 2: checkpoint-interval sweep under batch-killing faults
    for (const std::size_t every : {1, 4, 16}) {
        benchx::AppRig rig("Tree-LSTM");
        auto opts = benchx::AppRig::defaultOptions();
        opts.host_threads = cli.threads;
        opts.max_retransmits = 1; // one retry, then the batch fails
        gpusim::FaultPlan plan;
        plan.seed = 42;
        plan.script_ecc_rate = 0.5;
        rig.device().installFaults(plan);
        vpps::Handle handle(rig.model().model(), rig.device(), opts);
        train::RecoveryOptions ropts;
        ropts.checkpoint_every_batches = every;
        ropts.max_restores = 10000;
        const auto rep = train::measureVppsRecoverable(
            handle, rig.device(), rig.model(), n, batch, ropts);
        report.row("checkpoint_every=" + std::to_string(every),
                   {{"sim_us", rep.throughput.wall_us},
                    {"inputs_per_sec", rep.throughput.inputs_per_sec},
                    {"restores", static_cast<double>(rep.restores)},
                    {"replayed_batches",
                     static_cast<double>(rep.replayed_batches)},
                    {"checkpoints",
                     static_cast<double>(rep.checkpoints)}});
    }
    return 0;
}

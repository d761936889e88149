/**
 * @file
 * Crash-recovery cost sweep (DESIGN.md section 4.10, beyond the
 * paper): recovery time and lost work versus checkpoint interval and
 * WAL group-commit batch.
 *
 * Each point runs the crash-explorer scenario (two TreeLstm replicas
 * under mild overload, every arrival admitted), crashes the host at
 * 60% of the baseline's event count, restarts the stable store, and
 * recovers a fresh fleet. What recovery costs in simulated time is
 * dominated by the VPPS re-specialization (parameters live in JITted
 * code, so a restarted process pays a full re-JIT before serving);
 * what the crash *loses* is work, not requests: in-doubt completions
 * re-run, unacknowledged arrivals are re-delivered, and the bench
 * fails (exit 1) if any crash-consistency invariant breaks --
 * completions must stay bitwise identical to the no-crash run.
 */
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "serve/explorer.hpp"

int
main(int argc, char** argv)
{
    const benchx::BenchCli cli = benchx::parseBenchArgs(argc, argv);
    benchx::Report report(cli, "crash_recovery");
    common::setVerbose(false);

    const std::vector<std::uint64_t> ckpt_every = {4, 16, 64};
    const std::vector<std::size_t> sync_batch = {1, 8, 32};
    const double crash_frac = 0.6;

    bool ok = true;
    for (const std::uint64_t ce : ckpt_every) {
        for (const std::size_t sb : sync_batch) {
            serve::CrashExplorerConfig cfg;
            cfg.checkpoint_every_completions = ce;
            cfg.wal_sync_batch = sb;
            const serve::RecoveryMeasurement m =
                serve::measureRecovery(cfg, crash_frac);

            for (const std::string& v : m.violations) {
                common::warn("crash_recovery: ", v);
                ok = false;
            }
            report.row(
                "ckpt_every=" + std::to_string(ce) +
                    ",sync_batch=" + std::to_string(sb) +
                    ",crash_frac=0.6,requests=" +
                    std::to_string(cfg.n_requests) + ",replicas=2",
                {{"sim_us", m.recovery_us},
                 {"recovery_us", m.recovery_us},
                 {"re_jit_us", m.re_jit_us},
                 {"replayed_records",
                  static_cast<double>(m.replayed_records)},
                 {"in_doubt", static_cast<double>(m.in_doubt)},
                 {"redelivered_arrivals",
                  static_cast<double>(m.redelivered_arrivals)},
                 {"wal_syncs", static_cast<double>(m.wal_syncs)},
                 {"checkpoints", static_cast<double>(m.checkpoints)},
                 {"crash_event", static_cast<double>(m.crash_event)},
                 {"completed", static_cast<double>(m.completed)},
                 {"violations",
                  static_cast<double>(m.violations.size())}});
        }
    }

    if (!ok) {
        common::warn("crash_recovery: crash-consistency invariant "
                     "violated; see lines above");
        return 1;
    }
    return 0;
}

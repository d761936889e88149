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
 *
 *   ./crash_recovery --json --out BENCH_CRASH.json
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
    common::setVerbose(false);

    const std::vector<std::uint64_t> ckpt_every = {4, 16, 64};
    const std::vector<std::size_t> sync_batch = {1, 8, 32};
    const double crash_frac = 0.6;

    common::Table table({"ckpt_every", "sync_batch", "recovery_ms",
                         "re_jit_ms", "replayed", "in_doubt",
                         "redelivered", "wal_syncs", "completed"});
    bool ok = true;
    for (const std::uint64_t ce : ckpt_every) {
        for (const std::size_t sb : sync_batch) {
            serve::CrashExplorerConfig cfg;
            cfg.checkpoint_every_completions = ce;
            cfg.wal_sync_batch = sb;
            benchx::WallTimer timer;
            const serve::RecoveryMeasurement m =
                serve::measureRecovery(cfg, crash_frac);
            const double wall_ms = timer.elapsedMs();

            for (const std::string& v : m.violations) {
                common::warn("crash_recovery: ", v);
                ok = false;
            }
            table.addRow(
                {std::to_string(ce), std::to_string(sb),
                 common::Table::fmt(m.recovery_us / 1000.0, 1),
                 common::Table::fmt(m.re_jit_us / 1000.0, 1),
                 std::to_string(m.replayed_records),
                 std::to_string(m.in_doubt),
                 std::to_string(m.redelivered_arrivals),
                 std::to_string(m.wal_syncs),
                 std::to_string(m.completed)});
            benchx::printJsonResult(
                cli, "crash_recovery",
                "ckpt_every=" + std::to_string(ce) +
                    ",sync_batch=" + std::to_string(sb) +
                    ",crash_frac=0.6,requests=" +
                    std::to_string(cfg.n_requests) + ",replicas=2",
                m.recovery_us, wall_ms,
                {{"recovery_us", m.recovery_us},
                 {"re_jit_us", m.re_jit_us},
                 {"replayed_records",
                  static_cast<double>(m.replayed_records)},
                 {"in_doubt", static_cast<double>(m.in_doubt)},
                 {"redelivered_arrivals",
                  static_cast<double>(m.redelivered_arrivals)},
                 {"wal_syncs", static_cast<double>(m.wal_syncs)},
                 {"checkpoints", static_cast<double>(m.checkpoints)},
                 {"crash_event",
                  static_cast<double>(m.crash_event)},
                 {"completed", static_cast<double>(m.completed)},
                 {"violations",
                  static_cast<double>(m.violations.size())}});
        }
    }

    if (!cli.json)
        benchx::printTable(
            "Crash recovery: cost vs checkpoint interval x WAL "
            "sync batch (crash at 60% of baseline events)",
            table);
    if (!ok) {
        common::warn("crash_recovery: crash-consistency invariant "
                     "violated; see lines above");
        return 1;
    }
    return 0;
}

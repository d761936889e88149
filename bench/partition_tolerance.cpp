/**
 * @file
 * Partition-tolerance bench: the networked fleet under link faults.
 *
 * Three measurements over the link explorer's fixed star-topology
 * serving scenario (serve/explorer.hpp):
 *
 *  1. Link-down sweep -- the headline invariant. Down windows cut
 *     the controller->replica link at instants swept across the
 *     whole trace; at every point no admitted High-class request may
 *     be lost, post-heal completions must be bitwise identical to
 *     the fault-free run, and dispatch accounting must reconcile
 *     (routed == completed + failed_over + hedge_cancelled + fenced
 *     + lost). Any violation exits nonzero.
 *
 *  2. Mid-trace partition goodput -- the link cuts a third of the
 *     way through the trace and heals; the bench prices the goodput
 *     retained through the fence/reroute/heal episode.
 *
 *  3. Rack-local vs cross-rack promotion -- a replica's device
 *     wedges and the fleet ships the parameter blob to a warm
 *     standby over the links; the same blob crosses a same-rack
 *     nvlink or an inter-rack nic, and the bench reports both wire
 *     costs (the difference rack-aware failover exists for).
 *
 * --smoke shrinks the sweep for CI (fewer points, no bisection).
 * --faults layers 10% seeded message loss onto the partition episode
 * and re-runs it twice; the runs must agree field-for-field (the
 * loss stream is seeded per link) and still lose nothing.
 * tools/check.sh runs that soak.
 */
#include "bench_common.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "serve/explorer.hpp"

namespace {

serve::NetExplorerConfig
explorerConfig(const benchx::BenchCli& cli)
{
    const bool smoke = cli.has("--smoke");
    serve::NetExplorerConfig cfg;
    cfg.host_threads = cli.threads > 0 ? cli.threads : 1;
    cfg.max_points = smoke ? 4 : 12;
    cfg.bisect = !smoke;
    return cfg;
}

double
extraViolations(const std::vector<std::string>& violations)
{
    for (const std::string& v : violations)
        std::cerr << "partition_tolerance: VIOLATION: " << v << "\n";
    return static_cast<double>(violations.size());
}

} // namespace

int
main(int argc, char** argv)
{
    const auto cli =
        benchx::parseBenchArgs(argc, argv, {"--smoke", "--faults"});
    benchx::Report report(cli, "partition_tolerance");
    common::setVerbose(false);
    bool ok = true;

    // 1. The link-down sweep.
    const serve::NetExplorerConfig cfg = explorerConfig(cli);
    const serve::ExploreReport sweep =
        serve::exploreLinkDownPoints(cfg);
    for (const auto& f : sweep.failures) {
        std::cerr << "partition_tolerance: down_at_us="
                  << f.point << " violated:\n";
        extraViolations(f.violations);
    }
    ok = ok && sweep.passed();
    report.row(
        "sweep,points=" + std::to_string(sweep.points_tested.size()) +
            ",down_for_us=" + std::to_string(
                static_cast<long long>(cfg.down_for_us)) +
            ",threads=" + std::to_string(cfg.host_threads),
        {{"sim_us", static_cast<double>(sweep.baseline_end)},
         {"baseline_completed",
          static_cast<double>(sweep.baseline_completed)},
         {"points_tested",
          static_cast<double>(sweep.points_tested.size())},
         {"failures", static_cast<double>(sweep.failures.size())},
         {"passed", sweep.passed() ? 1.0 : 0.0}});

    // 2. Goodput under a mid-trace partition.
    serve::NetExplorerConfig pcfg = cfg;
    pcfg.down_for_us = 8'000.0;
    const serve::PartitionMeasurement part =
        serve::measurePartition(pcfg, 1.0 / 3.0);
    ok = ok && part.violations.empty();
    report.row(
        "partition,at_fraction=0.33,down_for_us=8000",
        {{"sim_us", part.faulted_end_us},
         {"baseline_goodput", part.baseline_goodput},
         {"faulted_goodput", part.faulted_goodput},
         {"completed", static_cast<double>(part.completed)},
         {"fenced", static_cast<double>(part.fenced)},
         {"fence_drops", static_cast<double>(part.fence_drops)},
         {"timeouts", static_cast<double>(part.timeouts)},
         {"retransmits", static_cast<double>(part.retransmits)},
         {"sends_blocked", static_cast<double>(part.sends_blocked)},
         {"unreachable_skips",
          static_cast<double>(part.unreachable_skips)},
         {"link_downs", static_cast<double>(part.link_downs)},
         {"violations", extraViolations(part.violations)}});

    // 3. Rack-local vs cross-rack standby promotion.
    serve::PromotionMeasurement prom[2];
    for (const bool rack_local : {true, false}) {
        serve::PromotionMeasurement m =
            serve::measurePromotion(cfg, rack_local);
        ok = ok && m.violations.empty() && m.joined;
        report.row(
            std::string("promotion,rack_local=") +
                (rack_local ? "1" : "0"),
            {{"sim_us", static_cast<double>(m.ship_us)},
             {"joined", m.joined ? 1.0 : 0.0},
             {"ship_us", static_cast<double>(m.ship_us)},
             {"ship_bytes", static_cast<double>(m.ship_bytes)},
             {"ship_chunks", static_cast<double>(m.ship_chunks)},
             {"ship_retries", static_cast<double>(m.ship_retries)},
             {"completed", static_cast<double>(m.completed)},
             {"violations", extraViolations(m.violations)}});
        prom[rack_local ? 0 : 1] = m;
    }
    if (prom[0].joined && prom[1].joined &&
        prom[0].ship_us >= prom[1].ship_us) {
        std::cerr << "partition_tolerance: rack-local promotion was "
                     "not cheaper than cross-rack ("
                  << prom[0].ship_us << " vs " << prom[1].ship_us
                  << " us)\n";
        ok = false;
    }

    if (cli.has("--faults")) {
        // Seeded-loss soak: 10% per-hop message loss layered onto
        // the partition episode, run twice. The loss stream is
        // seeded per link, so both runs must agree field-for-field
        // -- and still lose nothing.
        serve::NetExplorerConfig lcfg = cfg;
        lcfg.loss_rate = 0.10;
        lcfg.down_for_us = 8'000.0;
        const serve::PartitionMeasurement a =
            serve::measurePartition(lcfg, 0.5);
        const serve::PartitionMeasurement b =
            serve::measurePartition(lcfg, 0.5);
        const bool deterministic =
            a.retransmits == b.retransmits &&
            a.timeouts == b.timeouts && a.fenced == b.fenced &&
            a.completed == b.completed &&
            a.faulted_end_us == b.faulted_end_us;
        const bool soak_ok = deterministic &&
                             a.violations.empty() &&
                             b.violations.empty();
        report.row(
            "soak,loss_rate=0.10,at_fraction=0.50",
            {{"sim_us", a.faulted_end_us},
             {"retransmits", static_cast<double>(a.retransmits)},
             {"timeouts", static_cast<double>(a.timeouts)},
             {"fenced", static_cast<double>(a.fenced)},
             {"completed", static_cast<double>(a.completed)},
             {"deterministic", deterministic ? 1.0 : 0.0},
             {"violations", extraViolations(a.violations) +
                                extraViolations(b.violations)}});
        ok = ok && soak_ok;
    }

    if (!ok) {
        std::cerr << "partition_tolerance: FAILED -- a partition "
                     "invariant was violated\n";
        return 1;
    }
    return 0;
}

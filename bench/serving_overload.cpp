/**
 * @file
 * Serving-layer overload bench (DESIGN.md section 4.7): sweep an
 * open-loop Poisson arrival trace from 0.25x to 2x of the server's
 * calibrated capacity on a Tree-LSTM endpoint and report goodput,
 * latency order statistics, and the explicit-outcome counters. The
 * headline property: past saturation, goodput plateaus instead of
 * collapsing, the tail of *admitted* requests stays bounded, and
 * every rejected request shows up in a counter -- the accounting
 * identities hold at every load point.
 *
 * --faults adds a soak mode after the sweep: a high transient fault
 * rate under 2x overload. The process must survive with reconciled
 * counters (exits nonzero otherwise); tools/check.sh runs it.
 */
#include "bench_common.hpp"

#include <iostream>
#include <optional>

#include "gpusim/faults.hpp"
#include "serve/arrival.hpp"
#include "serve/server.hpp"

namespace {

struct LoadPoint
{
    double multiplier = 0.0;
    serve::Report report;
    double goodput_per_sec = 0.0;
};

/**
 * Serve one open-loop trace at @p multiplier x capacity. When
 * @p observe is true the point runs under an ObsScope, so
 * --trace/--metrics capture it (the sweep attaches this to the 2.0x
 * point -- the one whose brown-out/shedding behaviour is worth
 * looking at on a timeline).
 */
LoadPoint
runLoadPoint(const benchx::BenchCli& cli, double multiplier,
             std::size_t count, double fault_rate,
             bool observe = false)
{
    benchx::AppRig rig("Tree-LSTM", 0, 0, cli.functional);
    std::optional<benchx::ObsScope> scope;
    if (observe)
        scope.emplace(rig.device(), cli);
    if (fault_rate > 0.0)
        rig.device().installFaults(
            gpusim::FaultPlan::uniform(fault_rate, 42));

    auto opts = benchx::AppRig::defaultOptions();
    opts.host_threads = cli.threads;
    opts.async = false;
    opts.degrade_on_failure = false;
    vpps::Handle handle(rig.model().model(), rig.device(), opts);

    serve::ServerConfig cfg;
    serve::Server sizing(rig.device(), rig.model(), handle);
    sizing.calibrate();
    const double batch_us = sizing.serviceUs(cfg.batch.max_batch);
    cfg.batch.window_us = batch_us;

    serve::Server server(rig.device(), rig.model(), handle, cfg);
    server.calibrate();

    serve::ArrivalConfig ac;
    ac.rate_per_sec = multiplier * server.capacityPerSec();
    ac.count = count;
    ac.deadline_slack_us = 25.0 * batch_us;
    ac.low_deadline_slack_us = 30.0 * batch_us;
    ac.seed = 7;
    server.run(serve::generateOpenLoopArrivals(
        ac, server.nowUs() + batch_us,
        rig.model().datasetSize()));

    LoadPoint pt;
    pt.multiplier = multiplier;
    pt.report = server.report();
    if (pt.report.sim_end_us > 0.0)
        pt.goodput_per_sec =
            static_cast<double>(pt.report.counters.completed) /
            (pt.report.sim_end_us * 1e-6);
    return pt;
}

} // namespace

int
main(int argc, char** argv)
{
    // Strip the bench-specific flag before the shared parser (which
    // exits on anything it does not know).
    bool soak = false;
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--faults")
            soak = true;
        else
            args.push_back(argv[i]);
    }
    const auto cli = benchx::parseBenchArgs(
        static_cast<int>(args.size()), args.data());

    common::Table table({"offered/capacity", "arrivals", "completed",
                         "goodput/s", "p50 ms", "p99 ms", "shed",
                         "rejected", "timed out"});
    for (const double mult : {0.25, 0.5, 0.7, 1.0, 1.5, 2.0}) {
        benchx::WallTimer timer;
        const auto pt =
            runLoadPoint(cli, mult, 240, 0.0, mult == 2.0);
        const auto& c = pt.report.counters;
        if (!c.reconciled()) {
            std::cerr << "serving_overload: counters do not "
                         "reconcile at "
                      << mult << "x load\n";
            return 1;
        }
        table.addRow(
            {common::Table::fmt(mult, 2),
             std::to_string(c.arrivals),
             std::to_string(c.completed),
             common::Table::fmt(pt.goodput_per_sec, 1),
             common::Table::fmt(pt.report.latency.p50_us / 1e3, 2),
             common::Table::fmt(pt.report.latency.p99_us / 1e3, 2),
             std::to_string(c.shed),
             std::to_string(c.rejected_queue_full +
                            c.rejected_infeasible),
             std::to_string(c.timed_out)});
        benchx::printJsonResult(
            cli, "serving_overload",
            "load=" + common::Table::fmt(mult, 2),
            pt.report.sim_end_us, timer.elapsedMs(),
            {{"goodput_per_sec", pt.goodput_per_sec},
             {"p99_us", pt.report.latency.p99_us},
             {"completed", static_cast<double>(c.completed)},
             {"shed", static_cast<double>(c.shed)},
             {"rejected",
              static_cast<double>(c.rejected_queue_full +
                                  c.rejected_infeasible)}});
    }
    if (!cli.json)
        benchx::printTable(
            "Overload sweep (Tree-LSTM endpoint, open-loop Poisson "
            "arrivals, admission + brown-out enabled)",
            table);

    if (soak) {
        // Overload and a hostile device at once: 15% transient fault
        // rate across every category, 2x offered load. Survival +
        // reconciled accounting is the pass criterion.
        benchx::WallTimer timer;
        const auto pt = runLoadPoint(cli, 2.0, 160, 0.15);
        const auto& c = pt.report.counters;
        const bool ok = c.reconciled() && c.completed > 0;
        benchx::printJsonResult(
            cli, "serving_overload", "soak_faults=0.15",
            pt.report.sim_end_us, timer.elapsedMs(),
            {{"completed", static_cast<double>(c.completed)},
             {"failed", static_cast<double>(c.failed)},
             {"reconciled", ok ? 1.0 : 0.0}});
        if (!cli.json)
            std::cout << "soak: " << (ok ? "PASS" : "FAIL")
                      << " (completed " << c.completed << ", failed "
                      << c.failed << ", timed out " << c.timed_out
                      << ")\n";
        if (!ok) {
            std::cerr << "serving_overload: soak failed -- counters "
                         "did not reconcile or nothing completed\n";
            return 1;
        }
    }
    return 0;
}

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
    const auto cli = benchx::parseBenchArgs(argc, argv, {"--faults"});
    benchx::Report report(cli, "serving_overload");
    for (const double mult : {0.25, 0.5, 0.7, 1.0, 1.5, 2.0}) {
        const auto pt =
            runLoadPoint(cli, mult, 240, 0.0, mult == 2.0);
        const auto& c = pt.report.counters;
        if (!c.reconciled()) {
            std::cerr << "serving_overload: counters do not "
                         "reconcile at "
                      << mult << "x load\n";
            return 1;
        }
        report.row(
            "load=" + common::Table::fmt(mult, 2),
            {{"sim_us", pt.report.sim_end_us},
             {"arrivals", static_cast<double>(c.arrivals)},
             {"completed", static_cast<double>(c.completed)},
             {"goodput_per_sec", pt.goodput_per_sec},
             {"p50_us", pt.report.latency.p50_us},
             {"p99_us", pt.report.latency.p99_us},
             {"shed", static_cast<double>(c.shed)},
             {"rejected",
              static_cast<double>(c.rejected_queue_full +
                                  c.rejected_infeasible)},
             {"timed_out", static_cast<double>(c.timed_out)}});
    }

    if (cli.has("--faults")) {
        // Overload and a hostile device at once: 15% transient fault
        // rate across every category, 2x offered load. Survival +
        // reconciled accounting is the pass criterion.
        const auto pt = runLoadPoint(cli, 2.0, 160, 0.15);
        const auto& c = pt.report.counters;
        const bool ok = c.reconciled() && c.completed > 0;
        report.row("soak_faults=0.15",
                   {{"sim_us", pt.report.sim_end_us},
                    {"completed", static_cast<double>(c.completed)},
                    {"failed", static_cast<double>(c.failed)},
                    {"timed_out", static_cast<double>(c.timed_out)},
                    {"reconciled", ok ? 1.0 : 0.0}});
        if (!ok) {
            std::cerr << "serving_overload: soak failed -- counters "
                         "did not reconcile or nothing completed\n";
            return 1;
        }
    }
    return 0;
}

/**
 * @file
 * Fleet failover bench: goodput under replica loss.
 *
 * Sweep replica count R in {1, 2, 3} at a fixed offered load (1.8x
 * one replica's capacity) and wedge replica 0 a quarter of the way
 * through the trace. The headline shape: R = 1 collapses after the
 * wedge (every queued request drains explicitly, nothing silently
 * vanishes), while R >= 2 keeps serving -- in-flight work on the
 * dead device fails over within its deadline and goodput degrades
 * by roughly one replica's worth, not to zero. Dispatch accounting
 * (routed = completed + failed_over + hedge_cancelled + lost) must
 * reconcile at every point; the bench exits nonzero otherwise.
 *
 * --faults adds a soak after the sweep: the same single-device loss
 * layered with a 10% transient fault rate on a second replica, under
 * the same overload. Survival with reconciled counters is the pass
 * criterion; tools/check.sh runs it.
 *
 * --trace F captures the R = 3 point as a Chrome-trace timeline
 * (open in ui.perfetto.dev): the fleet lane shows routing and
 * failover decisions, per-replica lanes show dispatch spans, probe
 * verdicts, and breaker transitions around the wedge.
 */
#include "bench_common.hpp"

#include <iostream>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "gpusim/faults.hpp"
#include "serve/arrival.hpp"
#include "serve/fleet.hpp"
#include "serve/service_time.hpp"

namespace {

/** One replica: its own device, corpus, model, and live handle. */
struct BenchReplica
{
    explicit BenchReplica(const benchx::BenchCli& cli)
        : rig("Tree-LSTM", 0, 0, cli.functional)
    {
        auto opts = benchx::AppRig::defaultOptions();
        opts.host_threads = cli.threads;
        opts.async = false;
        opts.degrade_on_failure = false;
        handle = std::make_unique<vpps::Handle>(
            rig.model().model(), rig.device(), opts);
    }

    benchx::AppRig rig;
    std::unique_ptr<vpps::Handle> handle;
};

struct FleetPoint
{
    serve::FleetReport report;
    double goodput_per_sec = 0.0;
};

/**
 * Run one open-loop trace against a fleet of @p n_replicas, wedging
 * replica 0 at @p wedge_frac of the trace horizon. A non-negative
 * @p transient_rate layers a uniform transient plan on replica 1
 * (the soak configuration). @p observe attaches --trace/--metrics.
 */
FleetPoint
runFleetPoint(const benchx::BenchCli& cli, std::size_t n_replicas,
              double offered_mult, std::size_t count,
              double wedge_frac, double transient_rate, bool observe)
{
    // Calibrate one request's service time on a throwaway replica.
    BenchReplica sizing(cli);
    const double req_us = serve::probeBatchUs(
        *sizing.handle, sizing.rig.device(), sizing.rig.model(), 1);
    if (req_us < 0.0) {
        std::cerr << "fleet_failover: sizing probe failed\n";
        std::exit(1);
    }

    const double rate_per_sec = offered_mult * 1e6 / req_us;
    const double horizon_us =
        static_cast<double>(count) * 1e6 / rate_per_sec;
    const double start_us = req_us;

    std::vector<std::unique_ptr<BenchReplica>> replicas;
    std::vector<serve::FleetReplica> slots;
    for (std::size_t i = 0; i < n_replicas; ++i) {
        replicas.push_back(std::make_unique<BenchReplica>(cli));
        BenchReplica& br = *replicas.back();
        if (i == 0) {
            gpusim::FaultPlan plan;
            plan.wedge_at_us = start_us + wedge_frac * horizon_us;
            br.rig.device().installFaults(plan);
        } else if (i == 1 && transient_rate > 0.0) {
            br.rig.device().installFaults(
                gpusim::FaultPlan::uniform(transient_rate, 42));
        }
        slots.push_back({"r" + std::to_string(i), &br.rig.device(),
                         &br.rig.model(), br.handle.get()});
    }

    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (observe && !cli.trace_path.empty())
        tracer = std::make_unique<obs::Tracer>();
    if (observe && !cli.metrics_path.empty())
        metrics = std::make_unique<obs::MetricsRegistry>();
    // The tracer goes to the fleet only, NOT the devices: three
    // devices' kernel spans would wrap the ring and overwrite the
    // failover timeline (the router decisions, probe verdicts, and
    // breaker flips around the wedge) that this bench's --trace is
    // for. Device metrics are cheap counters and stay on.
    for (auto& br : replicas)
        br->rig.device().installMetrics(metrics.get());

    serve::FleetConfig cfg;
    cfg.max_failovers_high = 2;
    cfg.max_failovers_low = 1;
    cfg.hedge_delay_us = 3.0 * req_us;
    // Probes slow enough that a dispatch usually reaches the wedged
    // device first: the sweep then exercises deadline-aware failover
    // (the dispatch fails, re-enqueues at the front, and routes to a
    // survivor), not just probe-driven removal from rotation.
    cfg.health.probe_interval_us = 10.0 * req_us;
    {
        auto opts = benchx::AppRig::defaultOptions();
        opts.host_threads = cli.threads;
        opts.async = false;
        opts.degrade_on_failure = false;
        cfg.standby_opts = opts;
    }

    serve::Fleet fleet(slots, cfg, tracer.get(), metrics.get());

    serve::ArrivalConfig ac;
    ac.rate_per_sec = rate_per_sec;
    ac.count = count;
    ac.deadline_slack_us = 40.0 * req_us;
    ac.low_deadline_slack_us = 50.0 * req_us;
    ac.seed = 7;
    fleet.run(serve::generateOpenLoopArrivals(
        ac, fleet.nowUs() + start_us,
        replicas.front()->rig.model().datasetSize()));

    if (tracer) {
        if (auto st = obs::writeChromeTrace(cli.trace_path, *tracer);
            !st.ok())
            common::warn("fleet_failover: ", st.toString());
    }
    if (metrics) {
        if (auto st = metrics->writeJson(cli.metrics_path); !st.ok())
            common::warn("fleet_failover: ", st.toString());
    }
    for (auto& br : replicas)
        br->rig.device().installMetrics(nullptr);

    FleetPoint pt;
    pt.report = fleet.report();
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
    benchx::Report report(cli, "fleet_failover");
    for (const std::size_t r : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const auto pt = runFleetPoint(cli, r, 1.8, 240, 0.25, 0.0,
                                      /*observe=*/r == 3);
        const auto& c = pt.report.counters;
        if (!c.reconciled()) {
            std::cerr << "fleet_failover: counters do not reconcile "
                         "at R="
                      << r << "\n";
            return 1;
        }
        report.row(
            "replicas=" + std::to_string(r) +
                ",load=1.80,wedge_frac=0.25",
            {{"sim_us", pt.report.sim_end_us},
             {"arrivals", static_cast<double>(c.arrivals)},
             {"completed", static_cast<double>(c.completed)},
             {"goodput_per_sec", pt.goodput_per_sec},
             {"failed_over", static_cast<double>(c.failed_over)},
             {"lost", static_cast<double>(c.lost)},
             {"hedges", static_cast<double>(c.hedges)},
             {"device_losses", static_cast<double>(c.device_losses)},
             {"p99_us", pt.report.latency.p99_us},
             {"shed_rejected",
              static_cast<double>(c.shed + c.rejected_queue_full +
                                  c.rejected_infeasible)}});
    }

    if (cli.has("--faults")) {
        // Device loss AND a flaky survivor at once: replica 0 wedges
        // while replica 1 runs a 10% transient fault rate, still at
        // 1.8x a single replica's capacity. Pass = the fleet
        // survives, exactly one device loss, and every counter
        // identity reconciles.
        const auto pt =
            runFleetPoint(cli, 3, 1.8, 160, 0.25, 0.10, false);
        const auto& c = pt.report.counters;
        const bool ok = c.reconciled() && c.completed > 0 &&
                        c.device_losses == 1;
        report.row("soak_faults=0.10,replicas=3",
                   {{"sim_us", pt.report.sim_end_us},
                    {"completed", static_cast<double>(c.completed)},
                    {"failed_over", static_cast<double>(c.failed_over)},
                    {"lost", static_cast<double>(c.lost)},
                    {"reconciled", ok ? 1.0 : 0.0}});
        if (!ok) {
            std::cerr << "fleet_failover: soak failed -- counters "
                         "did not reconcile or the loss was not "
                         "absorbed\n";
            return 1;
        }
    }
    return 0;
}

/**
 * @file
 * serve_fleet: three timing-only Tree-LSTM replicas behind a
 * serve::Fleet, on a three-node NIC topology with no link faults, WAL
 * durability with group commit on a durable::StableStore, and High
 * class hedging.
 *
 * Arrivals are open-loop Poisson on the *simulated* clock at about
 * kLoad times the fleet's calibrated capacity, with Zipf-popular
 * inputs; on the host clock the run is a batch job. Arrivals go
 * through Fleet::run() kChunk at a time until the host seconds are
 * spent; each chunk starts no earlier than the fleet's clock, so no
 * chunk arrives in the fleet's past. The first kWindowChunks chunks
 * are the window: the only arrivals the simulated metrics and output
 * digests cover, so those repeat exactly for a given seed.
 */
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "durable/stable_store.hpp"
#include "gpusim/topology.hpp"
#include "obs/trace.hpp"
#include "rig.hpp"
#include "serve/fleet.hpp"
#include "vpps/script_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kCorpus = 64;
constexpr std::size_t kPoolFloats = 16u << 20;
/** Room for every corpus item's ~80k-instruction inference script. */
constexpr std::size_t kCacheInstructions = 8u << 20;
constexpr double kLoad = 0.5;
constexpr std::size_t kChunk = 50;
constexpr std::size_t kWindowChunks = 32; //!< 1600 arrivals
constexpr std::size_t kWindow = kChunk * kWindowChunks;
constexpr std::size_t kSizingInputs = 8;
constexpr double kLowFraction = 0.25;

vpps::VppsOptions
serveOptions(vpps::ScriptCache* cache)
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.host_threads = 1;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.script_cache = cache;
    return opts;
}

/** Seeded open-loop Poisson arrivals, generated a chunk at a time. */
class ArrivalGen
{
  public:
    ArrivalGen(const Corpus& corpus, std::uint64_t seed, double rate_per_s,
               double req_us)
        : corpus_(corpus), rng_(seed), rate_per_s_(rate_per_s),
          req_us_(req_us)
    {
    }

    /** The next @p n arrivals, the first no earlier than
     *  @p not_before_us. */
    std::vector<serve::Request>
    take(std::size_t n, double not_before_us)
    {
        std::vector<serve::Request> out;
        clock_us_ = std::max(clock_us_, not_before_us);
        for (std::size_t i = 0; i < n; ++i) {
            clock_us_ +=
                -std::log(1.0 - rng_.nextDouble()) * 1e6 / rate_per_s_;
            serve::Request r;
            r.id = next_id_++;
            r.cls = rng_.nextBernoulli(kLowFraction)
                        ? serve::RequestClass::Low
                        : serve::RequestClass::High;
            r.input_index = corpus_.sentence(rng_.nextZipf(kCorpus, 1.0));
            r.arrival_us = clock_us_;
            r.deadline_us =
                clock_us_ + (r.cls == serve::RequestClass::High ? 40.0
                                                                : 50.0) *
                                req_us_;
            out.push_back(r);
        }
        return out;
    }

  private:
    const Corpus& corpus_;
    common::Rng rng_;
    double rate_per_s_;
    double req_us_;
    double clock_us_ = 0.0;
    std::uint64_t next_id_ = 0;
};

/** Members are declared so that default destruction runs fleet first:
 *  it borrows the replicas, store and cache. */
struct ServeRig
{
    std::unique_ptr<Corpus> corpus;
    std::unique_ptr<vpps::ScriptCache> cache;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::unique_ptr<durable::StableStore> store;
    std::unique_ptr<serve::Fleet> fleet;
    std::unique_ptr<ArrivalGen> arrivals;
    double req_us = 0.0;

    void
    release()
    {
        arrivals.reset();
        fleet.reset();
        store.reset();
        replicas.clear();
        cache.reset();
        corpus.reset();
    }
};

/** Mean simulated service time of one request, from a throwaway
 *  replica (the fleet's sizing probe). */
double
sizeService(const Corpus& corpus, const Seeds& seeds,
            SpanRecorder& spans, std::int64_t setup)
{
    Replica probe(corpus, seeds.params, kPoolFloats, false,
                  serveOptions(nullptr), spans, setup);
    ScopedSpan s(spans, "serve.sizing", setup);
    vpps::Handle& h = probe.handle();
    for (std::size_t i = 0; i < kSizingInputs; ++i) {
        graph::ComputationGraph cg;
        auto loss = probe.model().buildLoss(cg, corpus.sentence(i));
        auto r = h.inferTry(probe.model().model(), cg, loss);
        if (!r.ok())
            throw std::runtime_error("sizing probe failed: " +
                                     r.status().toString());
    }
    return h.stats().wall_us / double(kSizingInputs);
}

/** @p tracer, when set, records the fleet's sim-clock events; the
 *  traced run reads the dispatches from it. */
ServeRig
buildRig(const Seeds& seeds, SpanRecorder& spans, std::int64_t setup,
         obs::Tracer* tracer = nullptr)
{
    ServeRig rig;
    rig.corpus =
        std::make_unique<Corpus>(seeds.corpus, kCorpus, spans, setup);
    rig.req_us = sizeService(*rig.corpus, seeds, spans, setup);

    // One decoded-script cache for the whole fleet: the replicas are
    // clones, so a script decoded on one is a hit on the others.
    rig.cache = std::make_unique<vpps::ScriptCache>(kCacheInstructions);
    std::vector<serve::FleetReplica> slots;
    for (std::size_t i = 0; i < kReplicas; ++i) {
        rig.replicas.push_back(std::make_unique<Replica>(
            *rig.corpus, seeds.params, kPoolFloats, false,
            serveOptions(rig.cache.get()), spans, setup));
        Replica& r = *rig.replicas.back();
        slots.push_back({"r" + std::to_string(i), &r.device(), &r.model(),
                         &r.handle(), i});
    }

    ScopedSpan s(spans, "serve.fleet_init", setup);
    rig.store = std::make_unique<durable::StableStore>();
    serve::FleetConfig cfg;
    cfg.hedge_delay_us = 3.0 * rig.req_us;
    cfg.standby_opts = serveOptions(nullptr);
    cfg.durability.store = rig.store.get();
    cfg.durability.wal_sync_batch = 8;
    cfg.durability.sync_high_admits = false;
    cfg.net.topology =
        gpusim::Topology::uniform(kReplicas, gpusim::LinkType::NIC);
    cfg.net.controller_node = 0;
    rig.fleet = std::make_unique<serve::Fleet>(slots, cfg, tracer);

    const double capacity_per_s = double(kReplicas) * 1e6 / rig.req_us;
    rig.arrivals = std::make_unique<ArrivalGen>(
        *rig.corpus, seeds.arrivals, kLoad * capacity_per_s, rig.req_us);
    return rig;
}

/** Σ of every replica handle's statistics. */
vpps::VppsStats
fleetStats(const ServeRig& rig)
{
    vpps::VppsStats sum;
    for (const auto& r : rig.replicas) {
        const vpps::VppsStats& s = r->handle().stats();
        sum.graph_us += s.graph_us;
        sum.fwd_sched_us += s.fwd_sched_us;
        sum.bwd_sched_us += s.bwd_sched_us;
        sum.transfer_us += s.transfer_us;
        sum.kernel_us += s.kernel_us;
        sum.batches += s.batches;
        sum.instructions += s.instructions;
    }
    return sum;
}

/** Record what the sim window must reproduce, and the layer counts. */
void
reportWindow(const ServeRig& rig, double first_arrival_us, Report& rep)
{
    const serve::Fleet& f = *rig.fleet;
    const serve::FleetCounters& c = f.counters();
    std::vector<double> ids, bits;
    for (const auto& [id, value] : f.responses()) {
        ids.push_back(double(id));
        bits.push_back(floatBits(value));
    }
    rep.nums("window_latency_us", f.latencies());
    rep.nums("window_response_ids", ids);
    rep.nums("window_response_bits", bits);
    rep.flag("window_reconciled", c.reconciled());
    rep.num("window_arrivals", double(c.arrivals));
    rep.num("window_completed", double(c.completed));
    rep.num("window_sim_us", f.nowUs() - first_arrival_us);
    rep.num("serve_routed", double(c.routed));
    rep.num("serve_hedges", double(c.hedges));
    rep.num("serve_probes", double(c.probes));
    const durable::StoreStats& st = rig.store->stats();
    rep.num("durable_wal_appends", double(st.appends));
    rep.num("durable_syncs", double(st.syncs));
    rep.num("durable_bytes_synced", double(st.bytes_synced));
    rep.num("net_messages", double(f.netStats().messages));
    rep.num("net_bytes_on_wire", double(f.netStats().bytes_on_wire));
    const vpps::VppsStats s = fleetStats(rig);
    rep.num("window_batches", double(s.batches));
    rep.num("window_graph_us", s.graph_us);
    rep.num("window_sched_us", s.fwd_sched_us + s.bwd_sched_us);
    rep.num("window_transfer_us", s.transfer_us);
    rep.num("window_kernel_us", s.kernel_us);
}

/** Take chunk @p k's arrivals and serve them in one Fleet::run(). */
std::vector<serve::Request>
runChunk(ServeRig& rig, std::size_t k, SpanRecorder& spans)
{
    auto batch = rig.arrivals->take(
        kChunk, rig.fleet->nowUs() + (k == 0 ? rig.req_us : 0.0));
    ScopedSpan s(spans, "serve.fleet_run", std::int64_t(k));
    rig.fleet->run(batch);
    return batch;
}

/**
 * Untraced: at least the window's chunks, then chunks until
 * @p seconds pass. Reports the window, each chunk's host time and
 * instructions, and the run's totals.
 */
void
serveLoop(ServeRig& rig, double seconds, Report& rep)
{
    SpanRecorder off(false);
    std::vector<double> chunk_ms, chunk_instructions;
    double first_arrival_us = 0.0;
    const auto start = Clock::now();
    for (std::size_t k = 0;
         k < kWindowChunks || secondsSince(start) < seconds; ++k) {
        const std::uint64_t instr_before = fleetStats(rig).instructions;
        const auto chunk_start = Clock::now();
        const auto batch = runChunk(rig, k, off);
        chunk_ms.push_back(msSince(chunk_start));
        chunk_instructions.push_back(
            double(fleetStats(rig).instructions - instr_before));
        if (k == 0)
            first_arrival_us = batch.front().arrival_us;
        if (k + 1 == kWindowChunks)
            reportWindow(rig, first_arrival_us, rep);
    }
    const serve::FleetCounters& c = rig.fleet->counters();
    rep.num("timed_s", secondsSince(start));
    rep.num("arrivals", double(c.arrivals));
    rep.num("completed", double(c.completed));
    rep.flag("reconciled", c.reconciled());
    std::size_t nonfinite = 0;
    for (const auto& [id, value] : rig.fleet->responses())
        nonfinite += std::isfinite(value) ? 0 : 1;
    rep.num("nonfinite_responses", double(nonfinite));
    rep.nums("op_ms", chunk_ms);
    rep.nums("instructions", chunk_instructions);
    const auto cs = rig.cache->stats();
    rep.num("cache_hits", double(cs.hits));
    rep.num("cache_lookups", double(cs.hits + cs.misses));
}

/** Request ids of the dispatches @p tracer recorded since it was
 *  last cleared, hedge legs and re-routes included, in sim order;
 *  clears it. */
std::vector<std::uint64_t>
takeDispatches(obs::Tracer& tracer)
{
    if (tracer.dropped() != 0)
        throw std::runtime_error("fleet tracer dropped events");
    std::vector<std::uint64_t> ids;
    for (const obs::TraceEvent& e : tracer.canonical())
        if (e.lane >= obs::kLaneReplicaBase &&
            e.kind == obs::EventKind::Complete &&
            (std::strcmp(e.name, "dispatch") == 0 ||
             std::strcmp(e.name, "hedge_dispatch") == 0))
            ids.push_back(std::uint64_t(e.ctx));
    tracer.clear();
    return ids;
}

/**
 * Traced: the window's chunks on @p rig, each Fleet::run() in a span;
 * after each chunk every dispatch it routed -- read from the fleet's
 * sim-clock tracer @p dispatches, hedge legs included -- is replayed
 * one by one on @p replayer through the public inference steps, so
 * the fleet and the replay are timed close together.
 */
void
tracedServe(ServeRig& rig, obs::Tracer& dispatches, Replica& replayer,
            SpanRecorder& spans, Report& report)
{
    vpps::ScriptCache cache(kCacheInstructions);
    vpps::ScriptExecutor exec(replayer.device(), 1, &cache);
    std::vector<std::size_t> input_of; // request id -> sentence
    std::vector<double> ids, bits, kernel_us, instructions, script_bytes,
        nodes;
    double fleet_s = 0.0;
    for (std::size_t k = 0; k < kWindowChunks; ++k) {
        const auto chunk_start = Clock::now();
        for (const serve::Request& r : runChunk(rig, k, spans))
            input_of.push_back(r.input_index);
        fleet_s += secondsSince(chunk_start);

        for (const std::uint64_t id : takeDispatches(dispatches)) {
            const std::int64_t op = std::int64_t(id);
            ScopedSpan req(spans, "serve.request", op);
            graph::ComputationGraph cg;
            graph::Expr loss;
            {
                ScopedSpan s(spans, "graph.build", op);
                loss = replayer.model().buildLoss(cg, input_of[id]);
            }
            ScopedSpan inf(spans, "vpps.infer", op);
            auto rr = replayBatch(replayer, exec, cg, loss, true, spans, op);
            if (!rr.ok())
                throw std::runtime_error("replayed request failed: " +
                                         rr.status().toString());
            ids.push_back(double(id));
            bits.push_back(floatBits(rr.value().loss));
            kernel_us.push_back(rr.value().kernel_us);
            instructions.push_back(double(rr.value().instructions));
            script_bytes.push_back(rr.value().script_bytes);
            nodes.push_back(double(cg.size()));
        }
    }
    report.num("traced_timed_s", fleet_s);
    report.num("traced_items", double(kWindow));
    report.nums("replay_ids", ids);
    report.nums("replay_loss_bits", bits);
    report.nums("replay_kernel_us", kernel_us);
    report.nums("replay_instructions", instructions);
    report.nums("replay_script_bytes", script_bytes);
    report.nums("replay_nodes", nodes);
}

} // namespace

void
runServe(const RunArgs& args, Report& report)
{
    const Seeds seeds(args.seed);
    SpanRecorder spans(args.traced);

    std::vector<double> setup_s;
    ServeRig rig;
    for (int s = 0; s < kSetups; ++s) {
        rig.release();
        const auto start = Clock::now();
        rig = buildRig(seeds, spans, s);
        setup_s.push_back(secondsSince(start));
    }
    report.nums("setup_s", setup_s);
    report.num("req_us", rig.req_us);
    report.num("window", double(kWindow));
    report.num("items_per_op", double(kChunk));
    report.num("interval_ops", 1.0);
    serveLoop(rig, args.seconds, report);
    report.num("peak_rss_mb", peakRssMb());
    if (!args.traced)
        return;

    rig.release();
    SpanRecorder off(false);
    obs::Tracer dispatches;
    rig = buildRig(seeds, off, -1, &dispatches);
    Replica replayer(*rig.corpus, seeds.params, kPoolFloats, false,
                     serveOptions(nullptr), off, -1);
    tracedServe(rig, dispatches, replayer, spans, report);
    probeTensorKernels(spans, report);
    report.spans("spans", spans.spans());
}

} // namespace perfbench

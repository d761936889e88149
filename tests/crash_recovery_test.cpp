/**
 * @file
 * Crash-consistency suite for the durable fleet: the host-crash
 * fault domain, recovery from a cleanly shut down store, and the
 * crash-point explorer's stratified sweeps at 1 and 8 host threads.
 * The explorer's invariants are the PR's headline guarantees: crash
 * at any event boundary, and after recovery no admitted High-class
 * request is lost, the completion set is bitwise identical to the
 * no-crash run, and counters reconcile by construction.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "durable/manifest.hpp"
#include "durable/stable_store.hpp"
#include "durable/wal.hpp"
#include "gpusim/faults.hpp"
#include "models/tree_lstm.hpp"
#include "serve/durability.hpp"
#include "serve/explorer.hpp"
#include "serve/fleet.hpp"
#include "vpps/handle.hpp"

namespace {

TEST(HostCrashDomain, FiresAtTheConfiguredBoundaryOnce)
{
    gpusim::FaultPlan plan;
    EXPECT_FALSE(plan.anyHostDomain());
    plan.host_crash_at_event = 5;
    EXPECT_TRUE(plan.anyHostDomain());
    gpusim::FaultInjector inj(plan);
    for (std::uint64_t e = 0; e < 5; ++e)
        EXPECT_FALSE(inj.hostCrashAtBoundary(e)) << e;
    EXPECT_TRUE(inj.hostCrashAtBoundary(5));
    EXPECT_TRUE(inj.hostCrashAtBoundary(6));
    EXPECT_EQ(inj.injected().host_crashes, 1u)
        << "the domain logs its category once, not per query";
}

TEST(HostCrashDomain, DisabledPlanNeverFires)
{
    gpusim::FaultInjector inj(gpusim::FaultPlan{});
    for (std::uint64_t e = 0; e < 100; ++e)
        EXPECT_FALSE(inj.hostCrashAtBoundary(e));
    EXPECT_EQ(inj.injected().host_crashes, 0u);
}

vpps::VppsOptions
rigOpts()
{
    vpps::VppsOptions opts;
    opts.rpw = 2;
    opts.async = false;
    opts.degrade_on_failure = false;
    opts.host_threads = 1;
    opts.max_relaunch_attempts = 2;
    return opts;
}

/** Fixed-seed replica, bitwise identical across constructions --
 *  what lets a second fleet recover against the first one's
 *  checkpointed parameter blob. */
struct Replica
{
    gpusim::Device device{gpusim::DeviceSpec{}, 48u << 20};
    common::Rng data_rng{121};
    data::Vocab vocab{300, 10000};
    data::Treebank bank{vocab, 8, data_rng, 7.0, 4, 10};
    common::Rng param_rng{122};
    std::unique_ptr<models::TreeLstmModel> bm;
    std::unique_ptr<vpps::Handle> handle;

    Replica()
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        bm = std::make_unique<models::TreeLstmModel>(
            bank, vocab, 16, 32, device, param_rng);
        handle = std::make_unique<vpps::Handle>(
            bm->model(), device, rigOpts());
    }

    serve::FleetReplica
    slot(const char* name)
    {
        return serve::FleetReplica{name, &device, bm.get(),
                                   handle.get()};
    }
};

std::vector<serve::Request>
smallArrivals(std::size_t n, std::size_t dataset_size)
{
    std::vector<serve::Request> out;
    for (std::size_t i = 0; i < n; ++i) {
        serve::Request r;
        r.id = i + 1;
        r.cls = (i % 4 == 0) ? serve::RequestClass::Low
                             : serve::RequestClass::High;
        r.input_index = i % dataset_size;
        r.arrival_us = 1000.0 * static_cast<double>(i + 1);
        r.deadline_us = r.arrival_us + 1.0e9;
        out.push_back(r);
    }
    return out;
}

serve::FleetConfig
durableConfig(durable::StableStore* store, std::size_t n,
              long long crash_at = -1)
{
    serve::FleetConfig fc;
    fc.admission.queue_capacity = n + 8;
    fc.admission.shrink_watermark = n + 8;
    fc.admission.shed_watermark = n + 8;
    fc.max_failovers_high = 2;
    fc.max_failovers_low = 1;
    fc.standby_opts = rigOpts();
    fc.durability.store = store;
    fc.durability.checkpoint_every_completions = 4;
    fc.durability.host_faults.host_crash_at_event = crash_at;
    return fc;
}

TEST(CrashRecovery, CleanShutdownRestoresCountersAndResponses)
{
    const std::size_t n = 10;
    durable::StableStore store;
    std::map<std::uint64_t, std::uint32_t> first_responses;
    serve::FleetCounters first;
    std::uint64_t first_generation = 0;
    {
        Replica r0, r1;
        serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                           durableConfig(&store, n));
        fleet.run(smallArrivals(n, r0.bm->datasetSize()));
        ASSERT_FALSE(fleet.crashed());
        first = fleet.counters();
        EXPECT_EQ(first.completed, n);
        first_generation = fleet.generation();
        EXPECT_GE(first_generation, 1u);
        for (const auto& [id, v] : fleet.responses()) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &v, 4);
            first_responses.emplace(id, bits);
        }
    }

    // A new process over the same store: construction recovers from
    // the manifest plus full WAL replay before any new arrival.
    Replica r0, r1;
    serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                       durableConfig(&store, n));
    ASSERT_TRUE(fleet.recovery().has_value());
    EXPECT_GT(fleet.generation(), first_generation)
        << "recovery installs a fresh generation";
    EXPECT_EQ(fleet.recovery()->in_doubt, 0u)
        << "a clean shutdown leaves nothing admitted-unfinalized";
    EXPECT_GT(fleet.recovery()->re_jit_us, 0.0)
        << "recovery must charge the VPPS re-specialization";

    const serve::FleetCounters& c = fleet.counters();
    EXPECT_TRUE(c.reconciled());
    EXPECT_EQ(c.arrivals, first.arrivals);
    EXPECT_EQ(c.admitted, first.admitted);
    EXPECT_EQ(c.completed, first.completed);
    EXPECT_EQ(c.admitted_high, first.admitted_high);
    EXPECT_EQ(c.completed_high, first.completed_high);
    EXPECT_EQ(c.timed_out, first.timed_out);
    EXPECT_EQ(c.failed, first.failed);

    ASSERT_EQ(fleet.responses().size(), first_responses.size());
    for (const auto& [id, v] : fleet.responses()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, 4);
        const auto it = first_responses.find(id);
        ASSERT_NE(it, first_responses.end()) << "id " << id;
        EXPECT_EQ(it->second, bits)
            << "restored response bits diverged for id " << id;
    }

    // The recovered fleet keeps serving.
    auto more = smallArrivals(3, r0.bm->datasetSize());
    for (auto& r : more) {
        r.id += 1000;
        r.arrival_us += fleet.recovery()->recovery_us + 1.0e7;
        r.deadline_us = r.arrival_us + 1.0e9;
    }
    fleet.run(more);
    EXPECT_EQ(fleet.counters().completed, first.completed + 3);
    EXPECT_TRUE(fleet.counters().reconciled());
}

TEST(CrashRecovery, CrashOnlyConfigHaltsTheLoopAtTheBoundary)
{
    Replica r0, r1;
    // No store: the host-crash domain alone must still halt the
    // event loop deterministically (nothing persisted, nothing
    // recovered).
    serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                       durableConfig(nullptr, 6, 0));
    fleet.run(smallArrivals(6, r0.bm->datasetSize()));
    EXPECT_TRUE(fleet.crashed());
    EXPECT_EQ(fleet.eventsProcessed(), 0u)
        << "crash at boundary 0 precedes the first event";
    EXPECT_EQ(fleet.counters().completed, 0u);

    // A crashed fleet is inert: further run() calls are no-ops.
    fleet.run(smallArrivals(6, r0.bm->datasetSize()));
    EXPECT_EQ(fleet.eventsProcessed(), 0u);
}

TEST(CrashRecovery, ExplorerSweepHoldsAtOneHostThread)
{
    serve::CrashExplorerConfig cfg;
    cfg.host_threads = 1;
    cfg.n_requests = 20;
    cfg.max_points = 6;
    const auto rep = serve::exploreCrashPoints(cfg);
    EXPECT_EQ(rep.baseline_completed, cfg.n_requests)
        << "the scenario must complete every arrival";
    EXPECT_GE(rep.points_tested.size(), 5u);
    // Pinned: the scenario's event count and the sweep it spans.
    EXPECT_EQ(rep.baseline_end, 142u);
    EXPECT_EQ(rep.points_tested,
              (std::vector<std::uint64_t>{0, 28, 56, 85, 113, 142}));
    EXPECT_TRUE(rep.passed()) << [&] {
        std::string msg = "violations:";
        for (const auto& f : rep.failures)
            for (const auto& v : f.violations)
                msg += "\n  " + v;
        return msg;
    }();
}

TEST(CrashRecovery, ExplorerSweepHoldsAtEightHostThreads)
{
    serve::CrashExplorerConfig cfg;
    cfg.host_threads = 8;
    cfg.n_requests = 20;
    cfg.max_points = 5;
    const auto rep = serve::exploreCrashPoints(cfg);
    EXPECT_EQ(rep.baseline_completed, cfg.n_requests);
    EXPECT_TRUE(rep.passed()) << [&] {
        std::string msg = "violations:";
        for (const auto& f : rep.failures)
            for (const auto& v : f.violations)
                msg += "\n  " + v;
        return msg;
    }();
}

TEST(CrashRecovery, ExplorerHoldsUnderGroupCommitAndFrequentCheckpoints)
{
    // Batched WAL sync leaves outcome records unsynced at the crash;
    // those requests come back in-doubt and must re-complete bitwise
    // identically. High-class admits still force a sync, so the
    // no-lost-High invariant holds even at batch 4.
    serve::CrashExplorerConfig cfg;
    cfg.host_threads = 1;
    cfg.n_requests = 20;
    cfg.max_points = 5;
    cfg.wal_sync_batch = 4;
    cfg.checkpoint_every_completions = 4;
    const auto rep = serve::exploreCrashPoints(cfg);
    EXPECT_EQ(rep.baseline_completed, cfg.n_requests);
    EXPECT_TRUE(rep.passed()) << [&] {
        std::string msg = "violations:";
        for (const auto& f : rep.failures)
            for (const auto& v : f.violations)
                msg += "\n  " + v;
        return msg;
    }();
}

TEST(CrashRecovery, RecoveredCountersArePinned)
{
    // WAL replay rebuilds the counters from the checkpoint plus the
    // journaled segment. Crash mid-run over a segment that holds
    // admit and outcome records and rejected arrivals, then pin every
    // counter the replay rebuilt and what the recovery reports.
    const std::size_t n = 12;
    durable::StableStore store;
    const auto config = [&](long long crash_at) {
        serve::FleetConfig fc = durableConfig(&store, n, crash_at);
        fc.durability.checkpoint_every_completions = 0;
        return fc;
    };
    {
        Replica r0, r1;
        auto arrivals = smallArrivals(n, r0.bm->datasetSize());
        for (std::size_t i = 2; i < n; i += 5)
            arrivals[i].deadline_us = arrivals[i].arrival_us + 1.0;
        serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")},
                           config(40));
        fleet.run(arrivals);
        ASSERT_TRUE(fleet.crashed());
    }
    store.restart();

    {
        // The segment replay reads, taken from a copy of the store so
        // the recovering fleet meters its reads from the same state.
        durable::StableStore copy = store;
        const durable::CheckpointStore ckpt(copy, "fleet");
        const auto loaded = ckpt.loadLatest();
        ASSERT_TRUE(loaded.ok());
        const auto st = serve::parseFleetState(loaded.value().payload);
        ASSERT_TRUE(st.ok());
        const auto wal = copy.read(loaded.value().manifest.wal_file);
        ASSERT_TRUE(wal.ok());
        std::size_t outcomes = 0, high_admits = 0, rejects = 0;
        for (const durable::WalRecord& rec :
             durable::readWal(wal.value(), st.value().wal_first_seq)
                 .records) {
            if (rec.type == serve::kJournalOutcomeType) {
                ++outcomes;
                continue;
            }
            const auto a = serve::decodeAdmit(rec.payload);
            ASSERT_TRUE(a.ok());
            using Decision = decltype(a.value().decision);
            if (a.value().decision != Decision::Admit)
                ++rejects;
            else if (a.value().cls == serve::RequestClass::High)
                ++high_admits;
        }
        EXPECT_GT(outcomes, 0u);
        EXPECT_GT(high_admits, 0u);
        EXPECT_GT(rejects, 0u);
    }

    Replica r0, r1;
    serve::Fleet fleet({r0.slot("r0"), r1.slot("r1")}, config(-1));
    ASSERT_TRUE(fleet.recovery().has_value());
    const serve::RecoveryInfo& info = *fleet.recovery();
    EXPECT_EQ(info.generation, 1u);
    EXPECT_EQ(info.replayed_records, 17u);
    EXPECT_EQ(info.in_doubt, 3u);
    EXPECT_EQ(info.wal_bytes, 914u);
    EXPECT_FALSE(info.wal_torn);
    EXPECT_EQ(info.recovery_us, 0x1.61e20de49359cp+21) // 2899009.8
        << std::hexfloat << info.recovery_us;
    EXPECT_EQ(info.re_jit_us, 0x1.61ca29b6c68cfp+21) // 2898245.2
        << std::hexfloat << info.re_jit_us;

    const serve::FleetCounters& c = fleet.counters();
    struct Pin
    {
        const char* name;
        std::uint64_t got, want;
    };
    const Pin pins[] = {
        {"arrivals", c.arrivals, 11},
        {"admitted", c.admitted, 9},
        {"rejected_queue_full", c.rejected_queue_full, 0},
        {"rejected_infeasible", c.rejected_infeasible, 2},
        {"shed", c.shed, 0},
        {"completed", c.completed, 6},
        {"timed_out", c.timed_out, 0},
        {"failed", c.failed, 0},
        {"admitted_high", c.admitted_high, 6},
        {"completed_high", c.completed_high, 4},
        {"timed_out_high", c.timed_out_high, 0},
        {"failed_high", c.failed_high, 0},
        {"routed", c.routed, 6},
        {"failed_over", c.failed_over, 0},
        {"hedge_cancelled", c.hedge_cancelled, 0},
        {"fenced", c.fenced, 0},
        {"lost", c.lost, 0},
        {"hedges", c.hedges, 0},
        {"probes", c.probes, 0},
        {"suspicions", c.suspicions, 0},
        {"device_losses", c.device_losses, 0},
        {"standby_joins", c.standby_joins, 0},
        {"expired_in_queue", c.expired_in_queue, 0},
        {"drained_no_replica", c.drained_no_replica, 0},
    };
    for (const Pin& p : pins)
        EXPECT_EQ(p.got, p.want) << p.name;
}

TEST(CrashRecovery, MeasureRecoveryIsPinned)
{
    // The bench/crash_recovery row at ckpt_every=4, sync_batch=1,
    // bit for bit: the crash, restart and resume legs must not move.
    serve::CrashExplorerConfig cfg;
    cfg.checkpoint_every_completions = 4;
    cfg.wal_sync_batch = 1;
    const serve::RecoveryMeasurement m =
        serve::measureRecovery(cfg, 0.6);
    EXPECT_TRUE(m.violations.empty());
    EXPECT_EQ(m.baseline_events, 199u);
    EXPECT_EQ(m.crash_event, 119u);
    EXPECT_EQ(m.wal_syncs, 51u);
    EXPECT_EQ(m.checkpoints, 4u);
    EXPECT_EQ(m.recovery_us, 0x1.6466970736829p+21); // 2919634.879
    EXPECT_EQ(m.re_jit_us, 0x1.61ca29b6c68cfp+21);   // 2898245.214
    EXPECT_EQ(m.replayed_records, 3u);
    EXPECT_EQ(m.in_doubt, 15u);
    EXPECT_EQ(m.redelivered_arrivals, 0u);
    EXPECT_EQ(m.completed, 28u);
}

} // namespace

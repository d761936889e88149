/**
 * @file
 * The data-parallel determinism headline (ISSUE 9): TreeLSTM training
 * through train::trainDataParallel produces byte-identical loss
 * curves and final parameters for R in {1, 2, 4, 8} replicas, at 1
 * and 8 host threads, under either all-reduce transport -- and the
 * overlapped schedule beats the barrier-after-backward baseline on
 * the same arithmetic. A golden comm-lane trace pins the canonical
 * emission, and one two-replica run per transport pins its losses,
 * final parameters and simulated time.
 */
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "data/treebank.hpp"
#include "data/vocab.hpp"
#include "models/tree_lstm.hpp"
#include "obs/trace.hpp"
#include "train/data_parallel.hpp"

namespace {

/**
 * One replica's world, built from fixed seeds so every instance --
 * and every replica of every run -- starts from identical dataset
 * and parameter bits (the Factory idiom of fault_recovery_test).
 */
class TreeLstmReplica : public train::ReplicaContext
{
  public:
    TreeLstmReplica() : device_(gpusim::DeviceSpec{}, 48u << 20)
    {
        unsetenv("VPPS_FAULT_RATE");
        unsetenv("VPPS_FAULT_SEED");
        vocab_ = std::make_unique<data::Vocab>(300, 10000);
        bank_ = std::make_unique<data::Treebank>(*vocab_, 8,
                                                 data_rng_, 7.0, 4,
                                                 10);
        bench_ = std::make_unique<models::TreeLstmModel>(
            *bank_, *vocab_, 16, 32, device_, param_rng_);
    }

    gpusim::Device& device() override { return device_; }
    models::BenchmarkModel& bench() override { return *bench_; }

  private:
    gpusim::Device device_;
    common::Rng data_rng_{121};
    common::Rng param_rng_{122};
    std::unique_ptr<data::Vocab> vocab_;
    std::unique_ptr<data::Treebank> bank_;
    std::unique_ptr<models::TreeLstmModel> bench_;
};

train::ReplicaFactory
treeLstmFactory()
{
    return [](std::size_t) {
        return std::make_unique<TreeLstmReplica>();
    };
}

train::DataParallelOptions
baseOptions(std::size_t replicas, int host_threads)
{
    train::DataParallelOptions opts;
    opts.replicas = replicas;
    opts.microbatches = 8;
    opts.microbatch_size = 2;
    opts.steps = 3;
    opts.topology =
        gpusim::Topology::uniform(8, gpusim::LinkType::NVLink);
    opts.vpps.rpw = 2;
    opts.vpps.host_threads = host_threads;
    return opts;
}

void
expectBitwiseEqual(const std::vector<float>& a,
                   const std::vector<float>& b,
                   const std::string& what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
}

TEST(DistDeterminism, ReplicaAndThreadCountsAreBitwiseIdentical)
{
    // Reference: one replica, one host thread.
    auto ref = train::trainDataParallel(treeLstmFactory(),
                                        baseOptions(1, 1));
    ASSERT_TRUE(ref.ok()) << ref.status().toString();
    ASSERT_TRUE(ref.value().completed)
        << ref.value().status.toString();
    ASSERT_EQ(ref.value().losses.size(), 3u);

    for (std::size_t replicas : {1u, 2u, 4u, 8u})
        for (int threads : {1, 8})
        {
            auto run = train::trainDataParallel(
                treeLstmFactory(), baseOptions(replicas, threads));
            ASSERT_TRUE(run.ok()) << run.status().toString();
            const train::DataParallelReport& rep = run.value();
            ASSERT_TRUE(rep.completed) << rep.status.toString();
            const std::string what =
                "R=" + std::to_string(replicas) +
                " threads=" + std::to_string(threads);
            expectBitwiseEqual(rep.losses, ref.value().losses,
                               what + " losses");
            expectBitwiseEqual(rep.final_params,
                               ref.value().final_params,
                               what + " params");
            EXPECT_TRUE(rep.replicas_identical) << what;
        }
}

TEST(DistDeterminism, TransportAlgorithmNeverTouchesArithmetic)
{
    auto ring_opts = baseOptions(4, 1);
    ring_opts.algo = gpusim::Collective::RingAllReduce;
    auto tree_opts = baseOptions(4, 1);
    tree_opts.algo = gpusim::Collective::TreeAllReduce;

    auto ring = train::trainDataParallel(treeLstmFactory(),
                                         ring_opts);
    auto tree = train::trainDataParallel(treeLstmFactory(),
                                         tree_opts);
    ASSERT_TRUE(ring.ok() && tree.ok());
    ASSERT_TRUE(ring.value().completed && tree.value().completed);
    expectBitwiseEqual(ring.value().losses, tree.value().losses,
                       "ring vs tree losses");
    expectBitwiseEqual(ring.value().final_params,
                       tree.value().final_params,
                       "ring vs tree params");
}

TEST(DistDeterminism, OverlapBeatsBarrierOnSameArithmetic)
{
    // PCIe makes comm expensive enough that hiding it matters.
    auto opts = baseOptions(4, 1);
    opts.topology =
        gpusim::Topology::uniform(8, gpusim::LinkType::PCIe);
    opts.overlap = true;
    auto run = train::trainDataParallel(treeLstmFactory(), opts);
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const train::DataParallelReport& rep = run.value();
    ASSERT_TRUE(rep.completed);

    // Both schedules are priced on every step; the charged clock
    // follows the overlapped one.
    EXPECT_LT(rep.overlap_total_us, rep.barrier_total_us);
    EXPECT_DOUBLE_EQ(rep.total_us, rep.overlap_total_us);
    EXPECT_GT(rep.allreduce_us, 0.0);
    // Overlap hid at least part of the all-reduce under backward.
    EXPECT_LT(rep.exposed_comm_us, rep.allreduce_us);

    // And the schedule choice never touches the arithmetic.
    auto barrier_opts = opts;
    barrier_opts.overlap = false;
    auto barrier = train::trainDataParallel(treeLstmFactory(),
                                            barrier_opts);
    ASSERT_TRUE(barrier.ok());
    ASSERT_TRUE(barrier.value().completed);
    expectBitwiseEqual(rep.losses, barrier.value().losses,
                       "overlap vs barrier losses");
    expectBitwiseEqual(rep.final_params,
                       barrier.value().final_params,
                       "overlap vs barrier params");
    EXPECT_DOUBLE_EQ(barrier.value().total_us,
                     barrier.value().barrier_total_us);
}

TEST(DistDeterminism, CommLaneGoldenTraceIsThreadCountCanonical)
{
    auto runWithTrace = [](int threads) {
        obs::Tracer tracer;
        auto opts = baseOptions(2, threads);
        opts.tracer = &tracer;
        auto run =
            train::trainDataParallel(treeLstmFactory(), opts);
        EXPECT_TRUE(run.ok() && run.value().completed);
        EXPECT_EQ(tracer.dropped(), 0u);
        return tracer.canonicalText();
    };

    const std::string at1 = runWithTrace(1);
    const std::string at8 = runWithTrace(8);
    // The comm lane is canonical: byte-identical at any host thread
    // count (the golden-trace property of DESIGN.md section 4.8).
    EXPECT_EQ(at1, at8);

    // Shape of the golden stream: 4 overlap buckets plus one done
    // marker per step, all on the comm lane.
    EXPECT_NE(at1.find("comm"), std::string::npos);
    EXPECT_NE(at1.find("allreduce_bucket"), std::string::npos);
    EXPECT_NE(at1.find("allreduce_done"), std::string::npos);
    std::size_t buckets = 0;
    for (std::size_t pos = at1.find("allreduce_bucket");
         pos != std::string::npos;
         pos = at1.find("allreduce_bucket", pos + 1))
        ++buckets;
    EXPECT_EQ(buckets, 3u * 4u); // steps x buckets
}

TEST(DistDeterminism, MetricsCoverCommAndSteps)
{
    obs::MetricsRegistry metrics;
    auto opts = baseOptions(2, 1);
    opts.metrics = &metrics;
    auto run = train::trainDataParallel(treeLstmFactory(), opts);
    ASSERT_TRUE(run.ok() && run.value().completed);
    EXPECT_EQ(metrics.counter("dp.steps").value(), 3u);
    EXPECT_EQ(metrics.counter("dp.microbatches").value(), 24u);
    EXPECT_EQ(metrics.counter("comm.allreduces").value(), 3u);
    EXPECT_EQ(metrics.counter("comm.messages").value(),
              run.value().comm_messages);
    EXPECT_EQ(metrics.counter("comm.bytes_on_wire").value(),
              run.value().comm_bytes_on_wire);
}

/** What a two-replica run computes and charges under one transport. */
struct TwoReplicaPin
{
    gpusim::Collective algo;
    std::uint32_t loss_bits[3];
    std::uint64_t params_digest; //!< FNV-1a of final_params' bytes
    double total_us;
    double allreduce_us;
};

TEST(DataParallel, TwoReplicaRunIsPinned)
{
    // DistDeterminism compares runs with each other, so a fault every
    // run shares -- a gradient scattered into the wrong parameter, a
    // collective priced differently -- passes there. Literals
    // recorded at R = 2 under each transport catch it.
    const TwoReplicaPin pins[] = {
        {gpusim::Collective::RingAllReduce,
         {0x41e63c72, 0x41c1fb34, 0x41bee5df},
         0xa4b13039dcbf6b0eull,
         0x1.f8d56c3673e3fp+14,
         0x1.fb5c28f5c28f6p+3},
        {gpusim::Collective::TreeAllReduce,
         {0x41e63c72, 0x41c1fb34, 0x41bee5df},
         0xa4b13039dcbf6b0eull,
         0x1.f8d64340b1549p+14,
         0x1.0b5c28f5c28f6p+4},
    };
    for (const TwoReplicaPin& pin : pins) {
        SCOPED_TRACE(pin.algo == gpusim::Collective::RingAllReduce
                         ? "ring"
                         : "tree");
        auto opts = baseOptions(2, 1);
        opts.algo = pin.algo;
        auto run = train::trainDataParallel(treeLstmFactory(), opts);
        ASSERT_TRUE(run.ok()) << run.status().toString();
        const train::DataParallelReport& rep = run.value();
        ASSERT_TRUE(rep.completed) << rep.status.toString();
        ASSERT_EQ(rep.losses.size(), 3u);
        for (std::size_t step = 0; step < 3; ++step) {
            std::uint32_t bits;
            std::memcpy(&bits, &rep.losses[step], sizeof(bits));
            EXPECT_EQ(bits, pin.loss_bits[step])
                << "step " << step << std::hex << std::showbase
                << ": " << bits;
        }
        const std::uint64_t digest = common::fnv1a64(
            reinterpret_cast<const std::uint8_t*>(
                rep.final_params.data()),
            rep.final_params.size() * sizeof(float));
        EXPECT_EQ(digest, pin.params_digest)
            << std::hex << std::showbase << digest;
        EXPECT_EQ(rep.total_us, pin.total_us)
            << std::hexfloat << rep.total_us;
        EXPECT_EQ(rep.allreduce_us, pin.allreduce_us)
            << std::hexfloat << rep.allreduce_us;
    }
}

TEST(DistDeterminism, ConfigErrorsAreStructured)
{
    // 3 replicas do not divide 8 microbatches.
    auto bad = baseOptions(3, 1);
    auto run = train::trainDataParallel(treeLstmFactory(), bad);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(),
              common::ErrorCode::InvalidArgument);

    // Topology smaller than the replica count.
    auto tiny = baseOptions(4, 1);
    tiny.topology =
        gpusim::Topology::uniform(2, gpusim::LinkType::NVLink);
    run = train::trainDataParallel(treeLstmFactory(), tiny);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(),
              common::ErrorCode::InvalidArgument);
}

} // namespace

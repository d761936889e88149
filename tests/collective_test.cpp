/**
 * @file
 * Topology + collective cost model units and the property-based
 * collective-equivalence suite (ISSUE 9): across randomized tensor
 * sizes, replica counts, and link configs, the functional all-reduce
 * result is bitwise independent of the transport algorithm and of
 * how leaves are grouped into replicas, and the modeled comm time
 * matches the closed-form alpha-beta cost exactly (integer
 * arithmetic, no tolerance).
 */
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gpusim/topology.hpp"
#include "train/collective.hpp"

namespace {

using gpusim::allReduceCost;
using gpusim::broadcastCost;
using gpusim::ceilDiv;
using gpusim::Collective;
using gpusim::defaultLink;
using gpusim::LinkSpec;
using gpusim::LinkType;
using gpusim::linkTransferNs;
using gpusim::ringAllReduceNs;
using gpusim::Topology;
using gpusim::treeAllReduceNs;

TEST(Topology, UniformConnectsEveryPair)
{
    const Topology topo = Topology::uniform(4, LinkType::NVLink);
    EXPECT_EQ(topo.numDevices(), 4u);
    for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 4; ++b)
        {
            const LinkSpec* link = topo.link(a, b);
            if (a == b)
                EXPECT_EQ(link, nullptr);
            else
            {
                ASSERT_NE(link, nullptr);
                EXPECT_EQ(link->type, LinkType::NVLink);
            }
        }
}

TEST(Topology, TransferNsIsExactAlphaBeta)
{
    LinkSpec spec;
    spec.type = LinkType::PCIe;
    spec.latency_ns = 5'000;
    spec.bytes_per_us = 12'000;
    const Topology topo = Topology::uniform(2, spec);

    // 12000 bytes at 12000 B/us = 1 us = 1000 ns, plus alpha.
    auto t = topo.transferNs(0, 1, 12'000);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 5'000u + 1'000u);

    // Ceil semantics: one extra byte costs a full extra... no, an
    // extra ns tick: ceil(12001*1000/12000) = 1001.
    t = topo.transferNs(0, 1, 12'001);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 5'000u + 1'001u);

    // Zero bytes still pays the latency alpha.
    t = topo.transferNs(0, 1, 0);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 5'000u);

    // Self-transfer is free.
    t = topo.transferNs(1, 1, 1 << 20);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), 0u);
}

TEST(Topology, ParseBuildsLinksAndRoutes)
{
    auto parsed = Topology::parse("# a two-hop chain\n"
                                  "devices 3\n"
                                  "link 0 1 nvlink\n"
                                  "link 1 2 pcie latency_ns=7000\n"
                                  "route 0 2 via 1\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const Topology& topo = parsed.value();
    EXPECT_EQ(topo.numDevices(), 3u);
    ASSERT_NE(topo.link(0, 1), nullptr);
    EXPECT_EQ(topo.link(0, 2), nullptr);
    ASSERT_NE(topo.link(2, 1), nullptr);
    EXPECT_EQ(topo.link(2, 1)->latency_ns, 7'000u);

    // Routed transfer sums the hops, in both directions.
    const std::uint64_t hop01 =
        linkTransferNs(*topo.link(0, 1), 64);
    const std::uint64_t hop12 =
        linkTransferNs(*topo.link(1, 2), 64);
    auto t = topo.transferNs(0, 2, 64);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), hop01 + hop12);
    auto back = topo.transferNs(2, 0, 64);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), t.value());
}

TEST(Topology, ParseAcceptsNicLinkAndRoute)
{
    auto parsed = Topology::parse("devices 3\n"
                                  "link 0 1 nvlink\n"
                                  "link 1 2 nic\n"
                                  "route 0 2 via 1\n");
    ASSERT_TRUE(parsed.ok());
}

TEST(Topology, UnconnectedPairIsUnavailable)
{
    auto parsed = Topology::parse("devices 3\nlink 0 1 nvlink\n");
    ASSERT_TRUE(parsed.ok());
    auto t = parsed.value().transferNs(0, 2, 64);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), common::ErrorCode::Unavailable);
}

TEST(AllReduceCost, SingleRankIsFree)
{
    const Topology topo = Topology::uniform(4, LinkType::NVLink);
    for (Collective algo :
         {Collective::RingAllReduce, Collective::TreeAllReduce})
    {
        auto cost = allReduceCost(topo, algo, 1 << 20, 1, 4);
        ASSERT_TRUE(cost.ok());
        EXPECT_EQ(cost.value().total_ns, 0u);
        EXPECT_EQ(cost.value().messages, 0u);
    }
}

TEST(AllReduceCost, RejectsBadRankCounts)
{
    const Topology topo = Topology::uniform(2, LinkType::NVLink);
    EXPECT_FALSE(
        allReduceCost(topo, Collective::RingAllReduce, 64, 0, 1)
            .ok());
    EXPECT_FALSE(
        allReduceCost(topo, Collective::RingAllReduce, 64, 3, 1)
            .ok());
}

TEST(AllReduceCost, MissingLinkSurfacesAsStatus)
{
    // Ranks 0 and 2 must talk in both schedules, but only a 0-1 and
    // a 1-2 link exist and no route bridges them.
    auto parsed = Topology::parse("devices 3\n"
                                  "link 0 1 nvlink\n"
                                  "link 1 2 nvlink\n");
    ASSERT_TRUE(parsed.ok());
    auto ring = allReduceCost(parsed.value(),
                              Collective::RingAllReduce, 4096, 3, 2);
    ASSERT_FALSE(ring.ok());
    EXPECT_EQ(ring.status().code(), common::ErrorCode::Unavailable);
}

/**
 * The modeled time of the stage-simulated schedule must equal the
 * closed-form pipelined alpha-beta cost *exactly* -- randomized over
 * sizes, rank counts, chunkings, and link parameters. Integer
 * arithmetic end to end: EXPECT_EQ, no tolerance.
 */
TEST(AllReduceCost, MatchesClosedFormExactly)
{
    common::Rng rng{20260807};
    for (int trial = 0; trial < 200; ++trial)
    {
        LinkSpec spec;
        spec.type = static_cast<LinkType>(rng.nextInt(0, 2));
        spec.latency_ns =
            static_cast<std::uint64_t>(rng.nextInt(0, 20'000));
        spec.bytes_per_us =
            static_cast<std::uint64_t>(rng.nextInt(1, 200'000));
        const std::size_t ranks =
            static_cast<std::size_t>(rng.nextInt(1, 8));
        const std::size_t chunks =
            static_cast<std::size_t>(rng.nextInt(1, 16));
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(rng.nextInt(0, 1 << 24));
        const Topology topo = Topology::uniform(8, spec);

        auto ring = allReduceCost(topo, Collective::RingAllReduce,
                                  bytes, ranks, chunks);
        ASSERT_TRUE(ring.ok());
        EXPECT_EQ(ring.value().total_ns,
                  ringAllReduceNs(spec, bytes, ranks, chunks))
            << "ranks=" << ranks << " chunks=" << chunks
            << " bytes=" << bytes;

        auto tree = allReduceCost(topo, Collective::TreeAllReduce,
                                  bytes, ranks, chunks);
        ASSERT_TRUE(tree.ok());
        EXPECT_EQ(tree.value().total_ns,
                  treeAllReduceNs(spec, bytes, ranks, chunks))
            << "ranks=" << ranks << " chunks=" << chunks
            << " bytes=" << bytes;

        // The pipelined makespan identity the closed form encodes.
        EXPECT_EQ(ring.value().total_ns,
                  (ring.value().stages + chunks - 1) *
                      ring.value().slot_ns);
    }
}

/**
 * The broadcast schedule (the fleet's parameter seeding) must match
 * its closed form exactly too, and price as the tree all-reduce's
 * fan-out half.
 */
TEST(CollectiveCostExtras, BroadcastMatchesClosedForm)
{
    common::Rng rng{20260808};
    for (int trial = 0; trial < 200; ++trial)
    {
        LinkSpec spec;
        spec.type = static_cast<LinkType>(rng.nextInt(0, 2));
        spec.latency_ns =
            static_cast<std::uint64_t>(rng.nextInt(0, 20'000));
        spec.bytes_per_us =
            static_cast<std::uint64_t>(rng.nextInt(1, 200'000));
        const std::size_t ranks =
            static_cast<std::size_t>(rng.nextInt(1, 8));
        const std::size_t chunks =
            static_cast<std::size_t>(rng.nextInt(1, 16));
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(rng.nextInt(0, 1 << 24));
        const Topology topo = Topology::uniform(8, spec);

        auto bc = broadcastCost(topo, bytes, ranks, chunks);
        ASSERT_TRUE(bc.ok()) << bc.status().toString();
        EXPECT_EQ(bc.value().total_ns,
                  treeBroadcastNs(spec, bytes, ranks, chunks))
            << "ranks=" << ranks << " chunks=" << chunks
            << " bytes=" << bytes;

        // Pipelined-makespan identity.
        EXPECT_EQ(bc.value().total_ns,
                  (bc.value().stages + chunks - 1) *
                      bc.value().slot_ns);

        if (ranks < 2) {
            // Degenerate single-rank broadcast is free (the
            // single-node fleet path relies on this).
            EXPECT_EQ(bc.value().total_ns, 0u);
            continue;
        }
        // Half-of-all-reduce structure: the tree all-reduce is
        // reduce + broadcast (equal stage counts).
        auto tree = allReduceCost(topo, Collective::TreeAllReduce,
                                  bytes, ranks, chunks);
        ASSERT_TRUE(tree.ok());
        EXPECT_EQ(tree.value().stages, 2 * bc.value().stages);
    }
}

/** Cost decreases (or holds) as chunked pipelining deepens until the
 *  per-chunk alpha dominates -- the crossover the bench sweeps. */
TEST(AllReduceCost, PipeliningHidesBandwidthTerm)
{
    const LinkSpec nv = defaultLink(LinkType::NVLink);
    const std::uint64_t bytes = 8u << 20;
    const std::uint64_t unchunked =
        ringAllReduceNs(nv, bytes, 4, 1);
    const std::uint64_t chunked = ringAllReduceNs(nv, bytes, 4, 8);
    EXPECT_LT(chunked, unchunked);
}

std::vector<std::vector<float>>
randomLeaves(common::Rng& rng, std::size_t count, std::size_t len)
{
    std::vector<std::vector<float>> leaves(count);
    for (auto& leaf : leaves)
    {
        leaf.resize(len);
        for (float& v : leaf) v = rng.nextFloat(-1.0f, 1.0f);
    }
    return leaves;
}

bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

/**
 * The replica-count independence property: grouping the M leaves
 * into R contiguous groups (R | M, M a power of two), tree-reducing
 * each group, then tree-reducing the partials yields bit-for-bit the
 * same result as one global tree over all M leaves -- because each
 * group's tree IS an internal node of the global tree. This is the
 * algebra that lets R replicas pre-reduce their own microbatches
 * without perturbing the arithmetic.
 */
TEST(CollectiveEquivalence, GroupedPartialsMatchGlobalTreeBitwise)
{
    common::Rng rng{31337};
    for (int trial = 0; trial < 50; ++trial)
    {
        const std::size_t m = 8; // the driver's fixed decomposition
        const std::size_t len =
            static_cast<std::size_t>(rng.nextInt(1, 3000));
        const auto leaves = randomLeaves(rng, m, len);
        const std::vector<float> global =
            train::reduceVectors(leaves);

        for (std::size_t replicas : {1u, 2u, 4u, 8u})
        {
            const std::size_t group = m / replicas;
            std::vector<std::vector<float>> partials;
            for (std::size_t r = 0; r < replicas; ++r)
            {
                const std::vector<std::vector<float>> mine(
                    leaves.begin() +
                        static_cast<std::ptrdiff_t>(r * group),
                    leaves.begin() +
                        static_cast<std::ptrdiff_t>((r + 1) * group));
                partials.push_back(train::reduceVectors(mine));
            }
            const std::vector<float> combined =
                train::reduceVectors(partials);
            EXPECT_TRUE(bitwiseEqual(combined, global))
                << "replicas=" << replicas << " len=" << len;
        }
    }
}

/**
 * Transport independence: the functional all-reduce result is the
 * canonical tree sum whatever algorithm is priced, so "ring" ==
 * "tree" == the single-device sum, bitwise, for any leaf count 1-8
 * (not just powers of two) -- the cost model and the arithmetic
 * never touch.
 */
TEST(CollectiveEquivalence, RingTreeAndSingleDeviceAgreeBitwise)
{
    common::Rng rng{77};
    for (int trial = 0; trial < 50; ++trial)
    {
        const std::size_t count =
            static_cast<std::size_t>(rng.nextInt(1, 8));
        const std::size_t len =
            static_cast<std::size_t>(rng.nextInt(1, 2000));
        const auto leaves = randomLeaves(rng, count, len);

        // The single source of arithmetic truth...
        const std::vector<float> single =
            train::reduceVectors(leaves);
        // ...is what both "algorithms" return by construction; the
        // algorithms differ only in the cost model, which performs
        // no float operations at all. Re-running the reduction per
        // algorithm checks it is a pure function of the leaves.
        for (Collective algo :
             {Collective::RingAllReduce, Collective::TreeAllReduce})
        {
            const Topology topo =
                Topology::uniform(8, LinkType::NVLink);
            auto cost = allReduceCost(topo, algo, len * 4, count, 4);
            ASSERT_TRUE(cost.ok());
            const std::vector<float> again =
                train::reduceVectors(leaves);
            EXPECT_TRUE(bitwiseEqual(again, single));
        }
    }
}

TEST(CollectiveEquivalence, ScalarTreeMatchesVectorTree)
{
    common::Rng rng{9};
    for (int trial = 0; trial < 50; ++trial)
    {
        const std::size_t count =
            static_cast<std::size_t>(rng.nextInt(1, 8));
        std::vector<float> scalars(count);
        std::vector<std::vector<float>> vectors(count);
        for (std::size_t i = 0; i < count; ++i)
        {
            scalars[i] = rng.nextFloat(-5.0f, 5.0f);
            vectors[i] = {scalars[i]};
        }
        const float s = train::reduceScalars(scalars);
        const std::vector<float> v = train::reduceVectors(vectors);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(std::memcmp(&s, v.data(), sizeof(float)), 0);
    }
}

} // namespace

/**
 * @file
 * Modeled multi-device interconnect (DESIGN.md section 4.11).
 *
 * A Topology connects the N independent simulated Devices a fleet or
 * a data-parallel trainer drives: typed point-to-point links (NVLink,
 * PCIe, NIC) with alpha-beta cost -- a fixed per-message latency plus
 * a bandwidth term -- and optional multi-hop routes through
 * intermediate devices. All link arithmetic is *integer* (latency in
 * nanoseconds, bandwidth in bytes per microsecond), so every modeled
 * transfer duration is exact and the collective cost model below can
 * be checked against its closed form with no floating-point slack
 * (collective_test pins this).
 *
 * On top of the links sits an all-reduce cost model with the two
 * classic algorithms -- ring and binary tree -- both with chunked
 * pipelining: the payload is cut into C chunks that stream through
 * the algorithm's S stages, so total time is (S + C - 1) pipeline
 * slots of the bottleneck stage. The cost model prices *time only*;
 * the functional reduction (train/collective.hpp) always applies one
 * canonical fixed-order sum regardless of the algorithm, which is
 * what makes losses and parameters bitwise identical at any replica
 * count and under either algorithm.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gpusim/faults.hpp"

namespace gpusim {

/** Interconnect technology of one link. */
enum class LinkType : std::uint8_t
{
    NVLink, //!< intra-node GPU-GPU mesh
    PCIe,   //!< host-bridged peer transfer
    NIC     //!< inter-node network (RDMA-style)
};

/** @return a short stable lower-case name ("nvlink", ...). */
const char* linkTypeName(LinkType type);

/** One directed (symmetrically installed) link's alpha-beta cost. */
struct LinkSpec
{
    LinkType type = LinkType::NVLink;

    /** Fixed per-message latency (alpha), nanoseconds. */
    std::uint64_t latency_ns = 0;

    /** Bandwidth (1/beta), bytes per microsecond. */
    std::uint64_t bytes_per_us = 1;
};

/** Paper-era defaults per technology (Titan-V-generation parts):
 *  NVLink 2.0 ~150 GB/s at ~1 us, PCIe 3.0 x16 ~12 GB/s at ~5 us,
 *  100 GbE NIC ~12.5 GB/s at ~10 us. */
LinkSpec defaultLink(LinkType type);

/**
 * N devices plus the links (and routes) between them.
 *
 * Built either programmatically (uniform()) or from a line-based
 * config (parse()):
 *
 *     devices 4
 *     link 0 1 nvlink
 *     link 1 2 pcie latency_ns=5000 bytes_per_us=12000
 *     route 0 2 via 1
 *
 * `link A B TYPE [latency_ns=X] [bytes_per_us=Y]` installs a
 * bidirectional link; `route A B via H1 [H2 ...]` declares the path
 * used when A and B share no direct link (every consecutive hop must
 * be an installed link, and no device may repeat -- cyclic routes are
 * rejected). Comments start with '#'. Malformed input of any kind
 * returns a structured InvalidArgument Status; parse() never panics
 * (topology_fuzz_test pins this).
 *
 * Two further directive families serve the multi-node fleet:
 *
 *     rack 1 2 3
 *     linkfault 0 2 down_at_us=500 down_for_us=200
 *     linkfault 0 2 degrade_at_us=900 degrade_for_us=100 \
 *               degrade_factor=4
 *     linkfault 1 2 loss_ppm=20000
 *
 * `rack R D1 [D2 ...]` assigns devices to rack R (devices default to
 * rack 0; re-assigning a device is an error), feeding the fleet's
 * rack-locality-aware failover. `linkfault A B key=value...`
 * schedules a clock-keyed fault on an *installed* link: a down
 * window (down_for_us=0 means permanent), a degraded-bandwidth
 * window (factor >= 2 divides bandwidth), or seeded message loss in
 * parts-per-million. Parsed faults are exported via linkFaults() for
 * the caller to install into a gpusim::FaultPlan.
 */
class Topology
{
  public:
    /** An empty topology (no devices); parse()/uniform() build real
     *  ones. */
    Topology() = default;

    /** Fully-connected topology of @p devices identical links. */
    static Topology uniform(std::size_t devices, LinkType type);

    /** uniform() with an explicit link spec (spec.bytes_per_us must
     *  be positive; panics otherwise -- callers own the literal). */
    static Topology uniform(std::size_t devices, LinkSpec spec);

    /** Parse the line-based config format above. */
    static common::Result<Topology> parse(const std::string& text);

    std::size_t numDevices() const { return num_devices_; }

    /** @return the direct link between @p a and @p b, or nullptr. */
    const LinkSpec* link(std::size_t a, std::size_t b) const;

    /** @return the configured route a->b as the full device sequence
     *  [a, hops..., b]; empty when a and b are directly linked or
     *  unreachable. */
    std::vector<std::size_t> route(std::size_t a, std::size_t b) const;

    /**
     * Modeled time to move @p bytes from @p a to @p b: the sum over
     * the path's hops of latency_ns + ceil(bytes * 1000 /
     * bytes_per_us). A zero-byte message still pays each hop's alpha.
     * @return an Unavailable error when no link or route connects the
     * pair.
     */
    common::Result<std::uint64_t>
    transferNs(std::size_t a, std::size_t b,
               std::uint64_t bytes) const;

    /** Rack the device belongs to (0 unless a `rack` directive moved
     *  it; out-of-range devices report rack 0). */
    std::size_t rackOf(std::size_t d) const;

    bool
    sameRack(std::size_t a, std::size_t b) const
    {
        return rackOf(a) == rackOf(b);
    }

    /** A copy in which every pair with no link and no route, but a
     *  link from each end to @p hub, routes through @p hub: priced
     *  exactly as a declared `route a b via <hub>` would be. */
    Topology withHubRoutes(std::size_t hub) const;

    /** Clock-keyed link faults parsed from `linkfault` directives, in
     *  config order; install into FaultPlan::link_faults to arm. */
    const std::vector<LinkFault>&
    linkFaults() const
    {
        return link_faults_;
    }

  private:
    struct Parser; //!< parse()'s line-at-a-time builder

    struct Route
    {
        std::size_t a = 0;
        std::size_t b = 0;
        std::vector<std::size_t> hops; //!< intermediates only
    };

    std::size_t linkIndex(std::size_t a, std::size_t b) const;

    std::size_t num_devices_ = 0;
    /** Dense upper-triangular adjacency; .bytes_per_us == 0 marks
     *  "no link". */
    std::vector<LinkSpec> links_;
    std::vector<Route> routes_;
    /** Rack id per device; empty means "everything in rack 0". */
    std::vector<std::size_t> racks_;
    std::vector<LinkFault> link_faults_;
};

/** @name Collective cost model
 *  @{ */

/** All-reduce schedule shape. Functionally both produce the same
 *  canonical fixed-order sum (train/collective.hpp); they differ only
 *  in modeled time. */
enum class Collective : std::uint8_t
{
    RingAllReduce, //!< 2(R-1) stages over the rank ring
    TreeAllReduce  //!< reduce + broadcast over a binary tree
};

/** What one modeled all-reduce costs. */
struct CollectiveCost
{
    /** End-to-end time of the pipelined schedule, ns (exact). */
    std::uint64_t total_ns = 0;

    /** Pipeline stages in the schedule (S in the closed form). */
    std::uint64_t stages = 0;

    /** Point-to-point messages sent across all links. */
    std::uint64_t messages = 0;

    /** Total bytes crossing links (sum over messages). */
    std::uint64_t bytes_on_wire = 0;

    /** The bottleneck stage's slot time, ns. */
    std::uint64_t slot_ns = 0;

    double totalUs() const
    {
        return static_cast<double>(total_ns) * 1e-3;
    }
};

/**
 * Price one all-reduce of @p bytes over ranks {0 .. ranks-1} of
 * @p topo, pipelined over @p chunks chunks (clamped to >= 1).
 *
 * The schedule is stage-simulated: every stage's slot time is the
 * slowest participating hop's alpha-beta time for one chunk, and the
 * pipelined makespan is (stages + chunks - 1) * slot. For a uniform
 * topology this equals the closed forms below exactly (integer
 * arithmetic throughout; collective_test asserts the identity).
 *
 * Ring: stages = 2(R-1), per-stage payload = ceil(bytes/R), chunk =
 * ceil(payload/chunks), R concurrent messages per stage.
 * Tree: stages = 2*ceil(log2 R) (reduce then broadcast), per-stage
 * payload = bytes, chunk = ceil(bytes/chunks); stage s carries one
 * message per pair actually combined at that tree level. The
 * schedule is broadcastCost()'s stages mirrored (reverse order, every
 * hop reversed), then those stages.
 *
 * @return Unavailable when a needed rank pair has no link or route;
 * InvalidArgument when ranks == 0 or ranks > topo.numDevices().
 * ranks == 1 is a valid degenerate case costing zero.
 */
common::Result<CollectiveCost>
allReduceCost(const Topology& topo, Collective algo,
              std::uint64_t bytes, std::size_t ranks,
              std::size_t chunks);

/** @return ceil(a / b); b must be positive. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Alpha-beta time of one @p bytes message on one link, ns. */
constexpr std::uint64_t
linkTransferNs(const LinkSpec& link, std::uint64_t bytes)
{
    return link.latency_ns + ceilDiv(bytes * 1000, link.bytes_per_us);
}

/** Closed-form pipelined ring all-reduce over uniform links, ns:
 *  (2(R-1) + C - 1) * linkTransferNs(link, ceil(ceil(B/R)/C)). */
std::uint64_t ringAllReduceNs(const LinkSpec& link,
                              std::uint64_t bytes, std::size_t ranks,
                              std::size_t chunks);

/** Closed-form pipelined binary-tree all-reduce over uniform links,
 *  ns: (2*ceil(log2 R) + C - 1) * linkTransferNs(link, ceil(B/C)). */
std::uint64_t treeAllReduceNs(const LinkSpec& link,
                              std::uint64_t bytes, std::size_t ranks,
                              std::size_t chunks);

/**
 * Price one binary-tree broadcast of @p bytes from rank 0 to ranks
 * {1 .. ranks-1}: the mirrored second half of the tree all-reduce
 * schedule (ceil(log2 R) stages over the full payload), pipelined
 * over @p chunks. Same stage simulation, errors, and degenerate
 * ranks==1 semantics as allReduceCost().
 */
common::Result<CollectiveCost>
broadcastCost(const Topology& topo, std::uint64_t bytes,
              std::size_t ranks, std::size_t chunks);

/** Closed-form pipelined tree broadcast over uniform links, ns:
 *  (ceil(log2 R) + C - 1) * linkTransferNs(link, ceil(B/C)). */
std::uint64_t treeBroadcastNs(const LinkSpec& link,
                              std::uint64_t bytes, std::size_t ranks,
                              std::size_t chunks);

/** @} */

} // namespace gpusim

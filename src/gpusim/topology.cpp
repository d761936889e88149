#include "gpusim/topology.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "common/logging.hpp"

namespace gpusim {

namespace {

using common::ErrorCode;
using common::Result;
using common::Status;

/** Upper bound accepted by parse() for `devices N`; keeps the dense
 *  adjacency matrix (N^2 LinkSpecs) at a few MB even for hostile
 *  configs. */
constexpr std::size_t kMaxParsedDevices = 512;

} // namespace

const char*
linkTypeName(LinkType type)
{
    switch (type)
    {
        case LinkType::NVLink: return "nvlink";
        case LinkType::PCIe: return "pcie";
        case LinkType::NIC: return "nic";
    }
    return "unknown";
}

LinkSpec
defaultLink(LinkType type)
{
    LinkSpec spec;
    spec.type = type;
    switch (type)
    {
        case LinkType::NVLink:
            spec.latency_ns = 1'000;
            spec.bytes_per_us = 150'000;
            break;
        case LinkType::PCIe:
            spec.latency_ns = 5'000;
            spec.bytes_per_us = 12'000;
            break;
        case LinkType::NIC:
            spec.latency_ns = 10'000;
            spec.bytes_per_us = 12'500;
            break;
    }
    return spec;
}

Topology
Topology::uniform(std::size_t devices, LinkType type)
{
    return uniform(devices, defaultLink(type));
}

Topology
Topology::uniform(std::size_t devices, LinkSpec spec)
{
    assert(spec.bytes_per_us > 0 && "uniform(): zero-bandwidth link");
    Topology topo;
    topo.num_devices_ = devices;
    topo.links_.assign(devices * devices, LinkSpec{});
    for (LinkSpec& slot : topo.links_) slot.bytes_per_us = 0;
    for (std::size_t a = 0; a < devices; ++a)
        for (std::size_t b = a + 1; b < devices; ++b)
        {
            topo.links_[a * devices + b] = spec;
            topo.links_[b * devices + a] = spec;
        }
    return topo;
}

std::size_t
Topology::linkIndex(std::size_t a, std::size_t b) const
{
    return a * num_devices_ + b;
}

const LinkSpec*
Topology::link(std::size_t a, std::size_t b) const
{
    if (a >= num_devices_ || b >= num_devices_ || a == b)
        return nullptr;
    const LinkSpec& spec = links_[linkIndex(a, b)];
    return spec.bytes_per_us > 0 ? &spec : nullptr;
}

std::vector<std::size_t>
Topology::route(std::size_t a, std::size_t b) const
{
    for (const Route& r : routes_)
    {
        if (r.a == a && r.b == b)
        {
            std::vector<std::size_t> path;
            path.reserve(r.hops.size() + 2);
            path.push_back(a);
            path.insert(path.end(), r.hops.begin(), r.hops.end());
            path.push_back(b);
            return path;
        }
        if (r.a == b && r.b == a)
        {
            std::vector<std::size_t> path;
            path.reserve(r.hops.size() + 2);
            path.push_back(a);
            path.insert(path.end(), r.hops.rbegin(), r.hops.rend());
            path.push_back(b);
            return path;
        }
    }
    return {};
}

Result<std::uint64_t>
Topology::transferNs(std::size_t a, std::size_t b,
                     std::uint64_t bytes) const
{
    if (a >= num_devices_ || b >= num_devices_)
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat("transfer endpoint out of range: ",
                                   a, " -> ", b, " with ",
                                   num_devices_, " devices"));
    if (a == b) return std::uint64_t{0};
    if (const LinkSpec* direct = link(a, b))
        return linkTransferNs(*direct, bytes);
    const std::vector<std::size_t> path = route(a, b);
    if (path.empty())
        return Status::failure(
            ErrorCode::Unavailable,
            common::detail::concat("no link or route between devices ",
                                   a, " and ", b));
    std::uint64_t total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
    {
        const LinkSpec* hop = link(path[i], path[i + 1]);
        assert(hop != nullptr && "route validated at parse time");
        total += linkTransferNs(*hop, bytes);
    }
    return total;
}

std::size_t
Topology::rackOf(std::size_t d) const
{
    return d < racks_.size() ? racks_[d] : 0;
}

namespace {

/** Splits one config line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string& line)
{
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string token;
    while (in >> token)
    {
        if (token[0] == '#') break; // comment to end of line
        tokens.push_back(token);
    }
    return tokens;
}

/** Strict non-negative integer parse; rejects signs, empties,
 *  trailing junk, and values that overflow uint64. */
bool
parseU64(const std::string& text, std::uint64_t* out)
{
    if (text.empty() || text.size() > 20) return false;
    std::uint64_t value = 0;
    for (char c : text)
    {
        if (c < '0' || c > '9') return false;
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) return false;
        value = value * 10 + digit;
    }
    *out = value;
    return true;
}

Status
lineError(std::size_t line_no, const std::string& why)
{
    return Status::failure(
        ErrorCode::InvalidArgument,
        common::detail::concat("topology config line ", line_no, ": ",
                               why));
}

} // namespace

Result<Topology>
Topology::parse(const std::string& text)
{
    Topology topo;
    bool have_devices = false;
    std::unordered_set<std::uint64_t> route_keys;
    std::vector<bool> rack_assigned;

    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line))
    {
        ++line_no;
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty()) continue;
        const std::string& verb = tokens[0];

        if (verb == "devices")
        {
            if (have_devices)
                return lineError(line_no,
                                 "duplicate 'devices' directive");
            std::uint64_t count = 0;
            if (tokens.size() != 2 || !parseU64(tokens[1], &count))
                return lineError(line_no,
                                 "expected 'devices N'");
            if (count == 0)
                return lineError(line_no,
                                 "need at least one device");
            if (count > kMaxParsedDevices)
                return lineError(
                    line_no,
                    common::detail::concat("device count ", count,
                                           " exceeds limit ",
                                           kMaxParsedDevices));
            topo.num_devices_ = static_cast<std::size_t>(count);
            topo.links_.assign(topo.num_devices_ * topo.num_devices_,
                               LinkSpec{});
            for (LinkSpec& slot : topo.links_) slot.bytes_per_us = 0;
            topo.racks_.assign(topo.num_devices_, 0);
            rack_assigned.assign(topo.num_devices_, false);
            have_devices = true;
            continue;
        }
        if (!have_devices)
            return lineError(line_no,
                             "'devices N' must come first");

        if (verb == "link")
        {
            if (tokens.size() < 4)
                return lineError(
                    line_no,
                    "expected 'link A B TYPE [latency_ns=X] "
                    "[bytes_per_us=Y]'");
            std::uint64_t a = 0;
            std::uint64_t b = 0;
            if (!parseU64(tokens[1], &a) || !parseU64(tokens[2], &b))
                return lineError(line_no,
                                 "link endpoints must be integers");
            if (a >= topo.num_devices_ || b >= topo.num_devices_)
                return lineError(
                    line_no,
                    common::detail::concat("link endpoint out of "
                                           "range: ",
                                           a, " ", b));
            if (a == b)
                return lineError(line_no, "self-link not allowed");

            LinkSpec spec;
            if (tokens[3] == "nvlink")
                spec = defaultLink(LinkType::NVLink);
            else if (tokens[3] == "pcie")
                spec = defaultLink(LinkType::PCIe);
            else if (tokens[3] == "nic")
                spec = defaultLink(LinkType::NIC);
            else
                return lineError(
                    line_no,
                    common::detail::concat("unknown link type '",
                                           tokens[3], "'"));

            for (std::size_t i = 4; i < tokens.size(); ++i)
            {
                const std::string& opt = tokens[i];
                const std::size_t eq = opt.find('=');
                if (eq == std::string::npos)
                    return lineError(
                        line_no,
                        common::detail::concat(
                            "expected key=value, got '", opt, "'"));
                const std::string key = opt.substr(0, eq);
                std::uint64_t value = 0;
                if (!parseU64(opt.substr(eq + 1), &value))
                    return lineError(
                        line_no,
                        common::detail::concat("bad integer in '",
                                               opt, "'"));
                if (key == "latency_ns")
                    spec.latency_ns = value;
                else if (key == "bytes_per_us")
                    spec.bytes_per_us = value;
                else
                    return lineError(
                        line_no,
                        common::detail::concat("unknown link option '",
                                               key, "'"));
            }
            if (spec.bytes_per_us == 0)
                return lineError(line_no,
                                 "zero-bandwidth link not allowed");

            const std::size_t sa = static_cast<std::size_t>(a);
            const std::size_t sb = static_cast<std::size_t>(b);
            if (topo.links_[topo.linkIndex(sa, sb)].bytes_per_us > 0)
                return lineError(
                    line_no,
                    common::detail::concat("duplicate link ", a, " ",
                                           b));
            topo.links_[topo.linkIndex(sa, sb)] = spec;
            topo.links_[topo.linkIndex(sb, sa)] = spec;
            continue;
        }

        if (verb == "route")
        {
            if (tokens.size() < 5 || tokens[3] != "via")
                return lineError(
                    line_no, "expected 'route A B via H1 [H2 ...]'");
            std::uint64_t a = 0;
            std::uint64_t b = 0;
            if (!parseU64(tokens[1], &a) || !parseU64(tokens[2], &b))
                return lineError(line_no,
                                 "route endpoints must be integers");
            if (a >= topo.num_devices_ || b >= topo.num_devices_)
                return lineError(
                    line_no,
                    common::detail::concat("route endpoint out of "
                                           "range: ",
                                           a, " ", b));
            if (a == b)
                return lineError(line_no,
                                 "route endpoints must differ");

            Route r;
            r.a = static_cast<std::size_t>(a);
            r.b = static_cast<std::size_t>(b);
            std::unordered_set<std::size_t> seen{r.a, r.b};
            for (std::size_t i = 4; i < tokens.size(); ++i)
            {
                std::uint64_t hop = 0;
                if (!parseU64(tokens[i], &hop))
                    return lineError(line_no,
                                     "route hops must be integers");
                if (hop >= topo.num_devices_)
                    return lineError(
                        line_no,
                        common::detail::concat("route hop out of "
                                               "range: ",
                                               hop));
                if (!seen.insert(static_cast<std::size_t>(hop))
                         .second)
                    return lineError(
                        line_no,
                        common::detail::concat(
                            "cyclic route: device ", hop,
                            " repeats"));
                r.hops.push_back(static_cast<std::size_t>(hop));
            }

            // Every consecutive hop must be an installed link, so a
            // parsed route is usable without further checks.
            std::size_t prev = r.a;
            for (std::size_t hop : r.hops)
            {
                if (topo.link(prev, hop) == nullptr)
                    return lineError(
                        line_no,
                        common::detail::concat("route uses missing "
                                               "link ",
                                               prev, " -> ", hop));
                prev = hop;
            }
            if (topo.link(prev, r.b) == nullptr)
                return lineError(
                    line_no,
                    common::detail::concat("route uses missing link ",
                                           prev, " -> ", r.b));

            const std::uint64_t key =
                static_cast<std::uint64_t>(std::min(r.a, r.b))
                    * (kMaxParsedDevices + 1)
                + std::max(r.a, r.b);
            if (!route_keys.insert(key).second)
                return lineError(
                    line_no,
                    common::detail::concat("duplicate route ", a, " ",
                                           b));
            topo.routes_.push_back(std::move(r));
            continue;
        }

        if (verb == "rack")
        {
            if (tokens.size() < 3)
                return lineError(line_no,
                                 "expected 'rack R D1 [D2 ...]'");
            std::uint64_t rack = 0;
            if (!parseU64(tokens[1], &rack))
                return lineError(line_no,
                                 "rack id must be an integer");
            if (rack > kMaxParsedDevices)
                return lineError(
                    line_no,
                    common::detail::concat("rack id ", rack,
                                           " exceeds limit ",
                                           kMaxParsedDevices));
            for (std::size_t i = 2; i < tokens.size(); ++i)
            {
                std::uint64_t dev = 0;
                if (!parseU64(tokens[i], &dev))
                    return lineError(
                        line_no, "rack members must be integers");
                if (dev >= topo.num_devices_)
                    return lineError(
                        line_no,
                        common::detail::concat("rack member out of "
                                               "range: ",
                                               dev));
                const std::size_t d = static_cast<std::size_t>(dev);
                if (rack_assigned[d])
                    return lineError(
                        line_no,
                        common::detail::concat("device ", dev,
                                               " already assigned to "
                                               "rack ",
                                               topo.racks_[d]));
                rack_assigned[d] = true;
                topo.racks_[d] = static_cast<std::size_t>(rack);
            }
            continue;
        }

        if (verb == "linkfault")
        {
            if (tokens.size() < 4)
                return lineError(
                    line_no,
                    "expected 'linkfault A B key=value [...]'");
            std::uint64_t a = 0;
            std::uint64_t b = 0;
            if (!parseU64(tokens[1], &a) || !parseU64(tokens[2], &b))
                return lineError(
                    line_no, "linkfault endpoints must be integers");
            if (a >= topo.num_devices_ || b >= topo.num_devices_)
                return lineError(
                    line_no,
                    common::detail::concat("linkfault endpoint out "
                                           "of range: ",
                                           a, " ", b));
            if (a == b)
                return lineError(line_no,
                                 "linkfault endpoints must differ");
            if (topo.link(static_cast<std::size_t>(a),
                          static_cast<std::size_t>(b)) == nullptr)
                return lineError(
                    line_no,
                    common::detail::concat("linkfault on missing "
                                           "link ",
                                           a, " ", b));

            LinkFault fault;
            fault.a = static_cast<std::size_t>(a);
            fault.b = static_cast<std::size_t>(b);
            bool have_down_at = false;
            bool have_down_for = false;
            bool have_degrade_at = false;
            bool have_degrade_for = false;
            bool have_factor = false;
            bool have_loss = false;
            for (std::size_t i = 3; i < tokens.size(); ++i)
            {
                const std::string& opt = tokens[i];
                const std::size_t eq = opt.find('=');
                if (eq == std::string::npos)
                    return lineError(
                        line_no,
                        common::detail::concat(
                            "expected key=value, got '", opt, "'"));
                const std::string key = opt.substr(0, eq);
                std::uint64_t value = 0;
                if (!parseU64(opt.substr(eq + 1), &value))
                    return lineError(
                        line_no,
                        common::detail::concat("bad integer in '",
                                               opt, "'"));
                auto once = [&](bool* seen) {
                    if (*seen) return false;
                    *seen = true;
                    return true;
                };
                if (key == "down_at_us")
                {
                    if (!once(&have_down_at))
                        return lineError(line_no,
                                         "duplicate down_at_us");
                    fault.down_at_us = static_cast<double>(value);
                }
                else if (key == "down_for_us")
                {
                    if (!once(&have_down_for))
                        return lineError(line_no,
                                         "duplicate down_for_us");
                    fault.down_for_us = static_cast<double>(value);
                }
                else if (key == "degrade_at_us")
                {
                    if (!once(&have_degrade_at))
                        return lineError(line_no,
                                         "duplicate degrade_at_us");
                    fault.degrade_at_us = static_cast<double>(value);
                }
                else if (key == "degrade_for_us")
                {
                    if (!once(&have_degrade_for))
                        return lineError(line_no,
                                         "duplicate degrade_for_us");
                    fault.degrade_for_us = static_cast<double>(value);
                }
                else if (key == "degrade_factor")
                {
                    if (!once(&have_factor))
                        return lineError(line_no,
                                         "duplicate degrade_factor");
                    fault.degrade_factor = value;
                }
                else if (key == "loss_ppm")
                {
                    if (!once(&have_loss))
                        return lineError(line_no,
                                         "duplicate loss_ppm");
                    if (value == 0)
                        return lineError(
                            line_no, "loss_ppm must be positive");
                    if (value > 1'000'000)
                        return lineError(
                            line_no,
                            common::detail::concat(
                                "loss_ppm ", value,
                                " exceeds 1000000"));
                    fault.loss_rate =
                        static_cast<double>(value) * 1e-6;
                }
                else
                {
                    return lineError(
                        line_no,
                        common::detail::concat(
                            "unknown linkfault option '", key, "'"));
                }
            }
            if (!have_down_at && !have_degrade_at && !have_loss)
                return lineError(
                    line_no,
                    "linkfault needs down_at_us, degrade_at_us, or "
                    "loss_ppm");
            if (have_down_for && !have_down_at)
                return lineError(
                    line_no, "down_for_us without down_at_us");
            if ((have_degrade_for || have_factor) && !have_degrade_at)
                return lineError(
                    line_no,
                    "degrade window fields without degrade_at_us");
            if (have_degrade_at && fault.degrade_factor < 2)
                return lineError(
                    line_no,
                    "degrade_at_us requires degrade_factor >= 2");
            topo.link_faults_.push_back(fault);
            continue;
        }

        return lineError(
            line_no,
            common::detail::concat("unknown directive '", verb, "'"));
    }

    if (!have_devices)
        return Status::failure(ErrorCode::InvalidArgument,
                               "topology config: missing 'devices N' "
                               "directive");
    return topo;
}

namespace {

/** ceil(log2 r) for r >= 1. */
std::uint64_t
ceilLog2(std::uint64_t r)
{
    std::uint64_t levels = 0;
    std::uint64_t span = 1;
    while (span < r)
    {
        span *= 2;
        ++levels;
    }
    return levels;
}

/** One directed message of the schedule (per chunk). */
struct Hop
{
    std::size_t src;
    std::size_t dst;
};

/** Shared rank validation for every collective pricer. */
Status
validateRanks(const Topology& topo, std::size_t ranks,
              const char* what)
{
    if (ranks == 0)
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat(what,
                                   " needs at least one rank"));
    if (ranks > topo.numDevices())
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat(what, " over ", ranks,
                                   " ranks but topology has ",
                                   topo.numDevices(), " devices"));
    return Status();
}

/**
 * Price a stage list: the pipeline's slot time is the slowest
 * message of any stage; with C chunks streaming through S stages the
 * makespan is (S + C - 1) slots (exact integer arithmetic).
 */
Result<CollectiveCost>
priceStages(const Topology& topo,
            const std::vector<std::vector<Hop>>& stages,
            std::uint64_t chunk_bytes, std::size_t chunks)
{
    CollectiveCost cost;
    std::uint64_t slot_ns = 0;
    for (const std::vector<Hop>& stage : stages)
        for (const Hop& hop : stage)
        {
            Result<std::uint64_t> hop_ns =
                topo.transferNs(hop.src, hop.dst, chunk_bytes);
            if (!hop_ns.ok()) return hop_ns.takeStatus();
            slot_ns = std::max(slot_ns, hop_ns.value());
            cost.messages += chunks;
            cost.bytes_on_wire += chunk_bytes * chunks;
        }
    cost.stages = stages.size();
    cost.slot_ns = slot_ns;
    cost.total_ns = (cost.stages + chunks - 1) * slot_ns;
    return cost;
}

/** The binary-tree broadcast stage list, rank 0 outward. It is also
 *  the second half of the tree all-reduce, whose first half is these
 *  stages mirrored. */
std::vector<std::vector<Hop>>
broadcastStages(std::size_t ranks)
{
    const std::uint64_t levels = ceilLog2(ranks);
    std::vector<std::vector<Hop>> stages;
    for (std::uint64_t level = levels; level-- > 0;)
    {
        const std::size_t stride = std::size_t{1} << level;
        std::vector<Hop> stage;
        for (std::size_t r = 0; r + stride < ranks; r += 2 * stride)
            stage.push_back(Hop{r, r + stride});
        stages.push_back(std::move(stage));
    }
    return stages;
}

} // namespace

Result<CollectiveCost>
allReduceCost(const Topology& topo, Collective algo,
              std::uint64_t bytes, std::size_t ranks,
              std::size_t chunks)
{
    Status valid = validateRanks(topo, ranks, "all-reduce");
    if (!valid.ok()) return valid;
    if (chunks == 0) chunks = 1;

    CollectiveCost cost;
    if (ranks == 1) return cost; // nothing to exchange

    // Build the stage list: which (src, dst) messages each pipeline
    // stage carries, and the per-message chunk size.
    std::vector<std::vector<Hop>> stages;
    std::uint64_t chunk_bytes = 0;
    if (algo == Collective::RingAllReduce)
    {
        // Reduce-scatter then all-gather around the rank ring:
        // 2(R-1) stages, every rank sending one segment chunk to its
        // successor each stage.
        const std::uint64_t segment =
            ceilDiv(std::max<std::uint64_t>(bytes, 1), ranks);
        chunk_bytes = ceilDiv(segment, chunks);
        std::vector<Hop> ring_stage;
        ring_stage.reserve(ranks);
        for (std::size_t r = 0; r < ranks; ++r)
            ring_stage.push_back(Hop{r, (r + 1) % ranks});
        stages.assign(2 * (ranks - 1), ring_stage);
    }
    else
    {
        // Binary-tree reduce to rank 0, then the broadcast back out:
        // 2*ceil(log2 R) stages over the full payload. The reduce is
        // the broadcast mirrored -- its stages in reverse order, every
        // hop reversed.
        chunk_bytes =
            ceilDiv(std::max<std::uint64_t>(bytes, 1), chunks);
        const std::vector<std::vector<Hop>> broadcast =
            broadcastStages(ranks);
        for (auto it = broadcast.rbegin(); it != broadcast.rend(); ++it)
        {
            std::vector<Hop> stage = *it;
            for (Hop& hop : stage) std::swap(hop.src, hop.dst);
            stages.push_back(std::move(stage));
        }
        stages.insert(stages.end(), broadcast.begin(), broadcast.end());
    }

    return priceStages(topo, stages, chunk_bytes, chunks);
}

std::uint64_t
ringAllReduceNs(const LinkSpec& link, std::uint64_t bytes,
                std::size_t ranks, std::size_t chunks)
{
    if (ranks <= 1) return 0;
    if (chunks == 0) chunks = 1;
    const std::uint64_t segment =
        ceilDiv(std::max<std::uint64_t>(bytes, 1), ranks);
    const std::uint64_t chunk = ceilDiv(segment, chunks);
    const std::uint64_t stages = 2 * (ranks - 1);
    return (stages + chunks - 1) * linkTransferNs(link, chunk);
}

std::uint64_t
treeAllReduceNs(const LinkSpec& link, std::uint64_t bytes,
                std::size_t ranks, std::size_t chunks)
{
    if (ranks <= 1) return 0;
    if (chunks == 0) chunks = 1;
    const std::uint64_t chunk =
        ceilDiv(std::max<std::uint64_t>(bytes, 1), chunks);
    const std::uint64_t stages = 2 * ceilLog2(ranks);
    return (stages + chunks - 1) * linkTransferNs(link, chunk);
}

Result<CollectiveCost>
broadcastCost(const Topology& topo, std::uint64_t bytes,
              std::size_t ranks, std::size_t chunks)
{
    Status valid = validateRanks(topo, ranks, "broadcast");
    if (!valid.ok()) return valid;
    if (chunks == 0) chunks = 1;
    if (ranks == 1) return CollectiveCost{};
    const std::uint64_t chunk_bytes =
        ceilDiv(std::max<std::uint64_t>(bytes, 1), chunks);
    return priceStages(topo, broadcastStages(ranks), chunk_bytes,
                       chunks);
}

std::uint64_t
treeBroadcastNs(const LinkSpec& link, std::uint64_t bytes,
                std::size_t ranks, std::size_t chunks)
{
    if (ranks <= 1) return 0;
    if (chunks == 0) chunks = 1;
    const std::uint64_t chunk =
        ceilDiv(std::max<std::uint64_t>(bytes, 1), chunks);
    const std::uint64_t stages = ceilLog2(ranks);
    return (stages + chunks - 1) * linkTransferNs(link, chunk);
}

} // namespace gpusim

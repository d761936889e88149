#include "gpusim/topology.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
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

/** A @p devices x @p devices adjacency with no link installed. */
std::vector<LinkSpec>
noLinks(std::size_t devices)
{
    LinkSpec none;
    none.bytes_per_us = 0;
    return std::vector<LinkSpec>(devices * devices, none);
}

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
    topo.links_ = noLinks(devices);
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

Topology
Topology::withHubRoutes(std::size_t hub) const
{
    Topology out = *this;
    for (std::size_t a = 0; a < num_devices_; ++a)
        for (std::size_t b = a + 1; b < num_devices_; ++b)
            if (link(a, b) == nullptr && route(a, b).empty() &&
                link(a, hub) != nullptr && link(hub, b) != nullptr)
                out.routes_.push_back(Route{a, b, {hub}});
    return out;
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

} // namespace

/** Builds one Topology from config text, a line at a time. Every
 *  error names its line. */
struct Topology::Parser
{
    Topology topo;
    bool have_devices = false;
    std::vector<bool> rack_assigned;
    std::size_t line_no = 0;
    std::vector<std::string> tokens; //!< the current line

    /** One directive: its verb, its token count bounds and usage, and
     *  the member that parses a line of it. */
    struct Directive
    {
        const char* verb;
        std::size_t min_tokens;
        std::size_t max_tokens;
        const char* usage;
        Status (Parser::*parse)();
    };
    static const Directive kDirectives[];
    const Directive* dir = nullptr; //!< the current line's

    Status
    error(const std::string& why) const
    {
        return Status::failure(
            ErrorCode::InvalidArgument,
            common::detail::concat("topology config line ", line_no,
                                   ": ", why));
    }

    Status usage() const { return error(dir->usage); }

    /** Parse the current line with its directive's member. */
    Status line();

    /** @p token as a device id: an integer below the device count. */
    Status
    device(const std::string& token, const char* what,
           std::size_t* out) const
    {
        std::uint64_t d = 0;
        if (!parseU64(token, &d))
            return error(common::detail::concat(what,
                                                " must be an integer"));
        if (d >= topo.num_devices_)
            return error(common::detail::concat(what,
                                                " out of range: ", d));
        *out = static_cast<std::size_t>(d);
        return Status();
    }

    /** tokens[1] and tokens[2] as two distinct device ids. */
    Status
    endpoints(std::size_t* a, std::size_t* b) const
    {
        const std::string what = tokens[0] + " endpoint";
        if (Status st = device(tokens[1], what.c_str(), a); !st.ok())
            return st;
        if (Status st = device(tokens[2], what.c_str(), b); !st.ok())
            return st;
        if (*a == *b)
            return error(tokens[0] + " endpoints must differ");
        return Status();
    }

    /** tokens[first..] as key=value options: @p keys names the keys
     *  this directive accepts, each at most once, and values[k] gets
     *  the value of keys[k] (empty where the line gives none). */
    Status
    options(std::size_t first, std::span<const char* const> keys,
            std::span<std::optional<std::uint64_t>> values) const
    {
        for (std::size_t i = first; i < tokens.size(); ++i)
        {
            const std::string& opt = tokens[i];
            const std::size_t eq = opt.find('=');
            if (eq == std::string::npos)
                return error(common::detail::concat(
                    "expected key=value, got '", opt, "'"));
            std::uint64_t value = 0;
            if (!parseU64(opt.substr(eq + 1), &value))
                return error(common::detail::concat("bad integer in '",
                                                    opt, "'"));
            const std::string key = opt.substr(0, eq);
            const auto k = std::find(keys.begin(), keys.end(), key);
            if (k == keys.end())
                return error(common::detail::concat(
                    "unknown ", tokens[0], " option '", key, "'"));
            std::optional<std::uint64_t>& slot =
                values[static_cast<std::size_t>(k - keys.begin())];
            if (slot) return error("duplicate " + key);
            slot = value;
        }
        return Status();
    }

    Status
    devices()
    {
        if (have_devices)
            return error("duplicate 'devices' directive");
        std::uint64_t count = 0;
        if (!parseU64(tokens[1], &count)) return usage();
        if (count == 0) return error("need at least one device");
        if (count > kMaxParsedDevices)
            return error(common::detail::concat(
                "device count ", count, " exceeds limit ",
                kMaxParsedDevices));
        topo.num_devices_ = static_cast<std::size_t>(count);
        topo.links_ = noLinks(topo.num_devices_);
        topo.racks_.assign(topo.num_devices_, 0);
        rack_assigned.assign(topo.num_devices_, false);
        have_devices = true;
        return Status();
    }

    Status
    link()
    {
        std::size_t a = 0;
        std::size_t b = 0;
        if (Status st = endpoints(&a, &b); !st.ok()) return st;
        std::optional<LinkType> type;
        for (LinkType t : {LinkType::NVLink, LinkType::PCIe,
                           LinkType::NIC})
            if (tokens[3] == linkTypeName(t)) type = t;
        if (!type)
            return error(common::detail::concat("unknown link type '",
                                                tokens[3], "'"));
        static constexpr const char* kKeys[] = {"latency_ns",
                                                "bytes_per_us"};
        std::optional<std::uint64_t> v[std::size(kKeys)];
        if (Status st = options(4, kKeys, v); !st.ok()) return st;
        LinkSpec spec = defaultLink(*type);
        spec.latency_ns = v[0].value_or(spec.latency_ns);
        spec.bytes_per_us = v[1].value_or(spec.bytes_per_us);
        if (spec.bytes_per_us == 0)
            return error("zero-bandwidth link not allowed");
        if (topo.link(a, b) != nullptr)
            return error(common::detail::concat("duplicate link ", a,
                                                " ", b));
        topo.links_[topo.linkIndex(a, b)] = spec;
        topo.links_[topo.linkIndex(b, a)] = spec;
        return Status();
    }

    Status
    route()
    {
        if (tokens[3] != "via") return usage();
        Route r;
        if (Status st = endpoints(&r.a, &r.b); !st.ok()) return st;
        std::unordered_set<std::size_t> seen{r.a, r.b};
        for (std::size_t i = 4; i < tokens.size(); ++i)
        {
            std::size_t hop = 0;
            if (Status st = device(tokens[i], "route hop", &hop);
                !st.ok())
                return st;
            if (!seen.insert(hop).second)
                return error(common::detail::concat(
                    "cyclic route: device ", hop, " repeats"));
            r.hops.push_back(hop);
        }
        // Every consecutive hop must be an installed link, so a
        // parsed route is usable without further checks.
        std::vector<std::size_t> path = r.hops;
        path.insert(path.begin(), r.a);
        path.push_back(r.b);
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            if (topo.link(path[i], path[i + 1]) == nullptr)
                return error(common::detail::concat(
                    "route uses missing link ", path[i], " -> ",
                    path[i + 1]));
        if (!topo.route(r.a, r.b).empty())
            return error(common::detail::concat("duplicate route ",
                                                r.a, " ", r.b));
        topo.routes_.push_back(std::move(r));
        return Status();
    }

    Status
    rack()
    {
        std::uint64_t rack = 0;
        if (!parseU64(tokens[1], &rack))
            return error("rack id must be an integer");
        if (rack > kMaxParsedDevices)
            return error(common::detail::concat(
                "rack id ", rack, " exceeds limit ", kMaxParsedDevices));
        for (std::size_t i = 2; i < tokens.size(); ++i)
        {
            std::size_t d = 0;
            if (Status st = device(tokens[i], "rack member", &d);
                !st.ok())
                return st;
            if (rack_assigned[d])
                return error(common::detail::concat(
                    "device ", d, " already assigned to rack ",
                    topo.racks_[d]));
            rack_assigned[d] = true;
            topo.racks_[d] = static_cast<std::size_t>(rack);
        }
        return Status();
    }

    Status
    linkfault()
    {
        LinkFault fault;
        if (Status st = endpoints(&fault.a, &fault.b); !st.ok())
            return st;
        if (topo.link(fault.a, fault.b) == nullptr)
            return error(common::detail::concat(
                "linkfault on missing link ", fault.a, " ", fault.b));
        static constexpr const char* kKeys[] = {
            "down_at_us",     "down_for_us",    "degrade_at_us",
            "degrade_for_us", "degrade_factor", "loss_ppm"};
        std::optional<std::uint64_t> v[std::size(kKeys)];
        if (Status st = options(3, kKeys, v); !st.ok()) return st;
        const auto& [down_at, down_for, degrade_at, degrade_for,
                     factor, loss] = v;
        if (loss == 0u) return error("loss_ppm must be positive");
        if (loss > 1'000'000u)
            return error(common::detail::concat(
                "loss_ppm ", *loss, " exceeds 1000000"));
        if (!down_at && !degrade_at && !loss)
            return error("linkfault needs down_at_us, degrade_at_us, "
                         "or loss_ppm");
        if (down_for && !down_at)
            return error("down_for_us without down_at_us");
        if ((degrade_for || factor) && !degrade_at)
            return error(
                "degrade window fields without degrade_at_us");
        if (degrade_at && factor.value_or(1) < 2)
            return error("degrade_at_us requires degrade_factor >= 2");
        if (down_at) fault.down_at_us = static_cast<double>(*down_at);
        if (down_for) fault.down_for_us = static_cast<double>(*down_for);
        if (degrade_at)
            fault.degrade_at_us = static_cast<double>(*degrade_at);
        if (degrade_for)
            fault.degrade_for_us = static_cast<double>(*degrade_for);
        fault.degrade_factor = factor.value_or(fault.degrade_factor);
        fault.loss_rate = static_cast<double>(loss.value_or(0)) * 1e-6;
        topo.link_faults_.push_back(fault);
        return Status();
    }
};

const Topology::Parser::Directive Topology::Parser::kDirectives[] = {
    {"devices", 2, 2, "expected 'devices N'", &Parser::devices},
    {"link", 4, SIZE_MAX,
     "expected 'link A B TYPE [latency_ns=X] [bytes_per_us=Y]'",
     &Parser::link},
    {"route", 5, SIZE_MAX, "expected 'route A B via H1 [H2 ...]'",
     &Parser::route},
    {"rack", 3, SIZE_MAX, "expected 'rack R D1 [D2 ...]'",
     &Parser::rack},
    {"linkfault", 4, SIZE_MAX,
     "expected 'linkfault A B key=value [...]'", &Parser::linkfault},
};

Status
Topology::Parser::line()
{
    dir = nullptr;
    for (const Directive& d : kDirectives)
        if (tokens[0] == d.verb) dir = &d;
    if (dir != &kDirectives[0] && !have_devices)
        return error("'devices N' must come first");
    if (dir == nullptr)
        return error(common::detail::concat("unknown directive '",
                                            tokens[0], "'"));
    if (tokens.size() < dir->min_tokens ||
        tokens.size() > dir->max_tokens)
        return usage();
    return (this->*dir->parse)();
}

Result<Topology>
Topology::parse(const std::string& text)
{
    Parser p;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
    {
        ++p.line_no;
        p.tokens = tokenize(line);
        if (p.tokens.empty()) continue;
        if (Status st = p.line(); !st.ok()) return st;
    }
    if (!p.have_devices)
        return Status::failure(ErrorCode::InvalidArgument,
                               "topology config: missing 'devices N' "
                               "directive");
    return std::move(p.topo);
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

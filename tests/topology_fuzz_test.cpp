/**
 * @file
 * Fuzz and regression suite for the topology config parser (ISSUE
 * 9). Topologies arrive as text a user (or a bench sweep script)
 * wrote, so Topology::parse must reject every malformed input with a
 * structured InvalidArgument -- malformed link specs, out-of-range
 * ids, self-links, zero-bandwidth links, cyclic or broken routes,
 * duplicate directives, integer overflow, bad rack assignments,
 * inconsistent link fault schedules -- and never panic or run away
 * on arbitrary bytes. Mirrors the durable_fuzz_test pattern:
 * promoted regressions first, then seeded random fuzzing over a
 * grammar-aware token soup.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/topology.hpp"

namespace {

using common::ErrorCode;
using gpusim::Topology;

void
expectRejected(const std::string& text, const std::string& why)
{
    auto parsed = Topology::parse(text);
    ASSERT_FALSE(parsed.ok()) << why << "\nconfig:\n" << text;
    EXPECT_EQ(parsed.status().code(), ErrorCode::InvalidArgument)
        << why;
    // Structured diagnostics, not just a code: the message names the
    // offending line for every line-level error.
    if (text.find('\n') != std::string::npos)
    {
        EXPECT_NE(parsed.status().toString().find("line"),
                  std::string::npos)
            << why << ": " << parsed.status().toString();
    }
}

/**
 * Every malformed shape the parser has been taught to reject, kept
 * as promoted regressions so a refactor cannot silently readmit one.
 */
TEST(TopologyFuzz, PromotedRegressions)
{
    // Missing / malformed device directive.
    expectRejected("", "empty config");
    expectRejected("link 0 1 nvlink\n", "link before devices");
    expectRejected("devices\n", "devices without a count");
    expectRejected("devices 0\n", "zero devices");
    expectRejected("devices -3\n", "negative devices");
    expectRejected("devices 2 extra\n", "trailing junk");
    expectRejected("devices 4\ndevices 4\n", "duplicate devices");
    expectRejected("devices 99999999\n", "absurd device count");
    expectRejected("devices 18446744073709551616\n",
                   "uint64 overflow");

    // Malformed link specs.
    expectRejected("devices 2\nlink 0 1\n", "link without a type");
    expectRejected("devices 2\nlink 0 1 warp\n",
                   "unknown link type");
    expectRejected("devices 2\nlink 0 2 nvlink\n",
                   "endpoint out of range");
    expectRejected("devices 2\nlink 1 1 nvlink\n", "self-link");
    expectRejected("devices 2\nlink a b nvlink\n",
                   "non-numeric endpoints");
    expectRejected("devices 2\nlink 0 1 pcie bytes_per_us=0\n",
                   "zero-bandwidth link");
    expectRejected("devices 2\nlink 0 1 pcie latency_ns=\n",
                   "empty option value");
    expectRejected("devices 2\nlink 0 1 pcie latency\n",
                   "option without =");
    expectRejected("devices 2\nlink 0 1 pcie color=3\n",
                   "unknown option");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlink 1 0 nvlink\n",
        "duplicate link (either direction)");
    expectRejected("devices 2\nlink 0 1 nvlink latency_ns=-5\n",
                   "negative option value");
    expectRejected(
        "devices 2\nlink 0 1 pcie latency_ns=4000 latency_ns=9000\n",
        "duplicate link option");

    // Malformed routes.
    expectRejected("devices 3\nroute 0 2 via 1\n",
                   "route over a missing link");
    expectRejected("devices 3\nlink 0 1 nvlink\nroute 0 1\n",
                   "route without via");
    expectRejected(
        "devices 3\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "route 0 2 via\n",
        "via with no hops");
    expectRejected(
        "devices 3\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "route 0 0 via 1\n",
        "route to self");
    expectRejected(
        "devices 4\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "link 2 3 nvlink\nroute 0 3 via 1 1\n",
        "cyclic route: hop repeats");
    expectRejected(
        "devices 3\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "route 0 2 via 0\n",
        "cyclic route: endpoint as hop");
    expectRejected(
        "devices 3\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "route 0 2 via 9\n",
        "route hop out of range");
    expectRejected(
        "devices 3\nlink 0 1 nvlink\nlink 1 2 nvlink\n"
        "route 0 2 via 1\nroute 2 0 via 1\n",
        "duplicate route (either direction)");

    // Malformed rack assignments.
    expectRejected("rack 1 0\n", "rack before devices");
    expectRejected("devices 2\nrack 1\n", "rack without members");
    expectRejected("devices 2\nrack x 0\n",
                   "non-numeric rack id");
    expectRejected("devices 2\nrack 1 z\n",
                   "non-numeric rack member");
    expectRejected("devices 2\nrack 1 5\n",
                   "rack member out of range");
    expectRejected("devices 2\nrack 1 0\nrack 2 0\n",
                   "device assigned to two racks");
    expectRejected("devices 2\nrack 99999999999 0\n",
                   "absurd rack id");

    // Malformed link fault schedules.
    expectRejected("linkfault 0 1 down_at_us=5\n",
                   "linkfault before devices");
    expectRejected("devices 2\nlink 0 1 nvlink\nlinkfault 0 1\n",
                   "linkfault without options");
    expectRejected("devices 2\nlinkfault 0 1 down_at_us=5\n",
                   "linkfault on missing link");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 0 down_at_us=5\n",
        "linkfault self-pair");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 9 down_at_us=5\n",
        "linkfault endpoint out of range");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault a b down_at_us=5\n",
        "linkfault non-numeric endpoints");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 1 down_at_us\n",
        "linkfault option without =");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 1 down_at_us=x\n",
        "linkfault non-numeric value");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 1 color=3\n",
        "unknown linkfault option");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\nlinkfault 0 1 down_for_us=5\n",
        "down_for_us without down_at_us");
    expectRejected("devices 2\nlink 0 1 nvlink\n"
                   "linkfault 0 1 degrade_for_us=5\n",
                   "degrade window without degrade_at_us");
    expectRejected("devices 2\nlink 0 1 nvlink\n"
                   "linkfault 0 1 degrade_at_us=5\n",
                   "degrade_at_us without a factor >= 2");
    expectRejected("devices 2\nlink 0 1 nvlink\n"
                   "linkfault 0 1 degrade_at_us=5 degrade_factor=1\n",
                   "degrade_factor below 2");
    expectRejected("devices 2\nlink 0 1 nvlink\n"
                   "linkfault 0 1 loss_ppm=0\n",
                   "zero loss_ppm (would not round-trip)");
    expectRejected("devices 2\nlink 0 1 nvlink\n"
                   "linkfault 0 1 loss_ppm=1000001\n",
                   "loss_ppm above one million");
    expectRejected(
        "devices 2\nlink 0 1 nvlink\n"
        "linkfault 0 1 down_at_us=5 down_at_us=9\n",
        "duplicate linkfault option");

    // Unknown directives.
    expectRejected("devices 2\nnode 0\n", "unknown directive");
}

TEST(TopologyFuzz, ValidRackAndLinkFaultDirectivesParse)
{
    auto ok = Topology::parse(
        "devices 4\n"
        "link 0 1 nvlink\n"
        "link 1 2 pcie\n"
        "rack 1 0 1\n"
        "rack 2 2 3\n"
        "linkfault 0 1 down_at_us=100 down_for_us=50\n"
        "linkfault 1 2 degrade_at_us=10 degrade_for_us=20 "
        "degrade_factor=4 loss_ppm=2500\n");
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    const Topology& topo = ok.value();
    EXPECT_EQ(topo.rackOf(0), 1u);
    EXPECT_TRUE(topo.sameRack(0, 1));
    EXPECT_FALSE(topo.sameRack(1, 2));
    ASSERT_EQ(topo.linkFaults().size(), 2u);
    EXPECT_DOUBLE_EQ(topo.linkFaults()[0].down_at_us, 100.0);
    EXPECT_DOUBLE_EQ(topo.linkFaults()[1].loss_rate, 2500e-6);
}

TEST(TopologyFuzz, ValidConfigsStillParse)
{
    // The rejection net must not catch well-formed input.
    auto ok = Topology::parse(
        "# full config\n"
        "devices 4\n"
        "link 0 1 nvlink\n"
        "link 1 2 pcie latency_ns=4000 bytes_per_us=11000\n"
        "link 2 3 nic\n"
        "route 0 2 via 1\n"
        "route 0 3 via 1 2\n"
        "\n");
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    EXPECT_EQ(ok.value().numDevices(), 4u);
    EXPECT_EQ(ok.value().route(0, 3).size(), 4u);
}

/**
 * Grammar-aware token soup: random directives with mostly-plausible
 * and occasionally hostile tokens. The parser must return ok or a
 * structured InvalidArgument -- never crash, hang, or allocate
 * unboundedly -- and every accepted topology must satisfy its own
 * invariants (positive bandwidth everywhere, usable routes).
 */
TEST(TopologyFuzz, SeededRandomFuzzNeverCrashes)
{
    common::Rng rng{0xD15717EE};
    const char* types[] = {"nvlink", "pcie", "nic", "warp", ""};
    const char* keys[] = {"latency_ns",    "bytes_per_us",
                          "color",         "down_at_us",
                          "down_for_us",   "degrade_at_us",
                          "degrade_for_us", "degrade_factor",
                          "loss_ppm",      ""};

    auto token = [&]() -> std::string {
        switch (rng.nextInt(0, 5))
        {
            case 0: return std::to_string(rng.nextInt(0, 9));
            case 1: return std::to_string(rng.nextInt(-2, 600));
            case 2: return types[rng.nextBelow(5)];
            case 3:
                return std::string(keys[rng.nextBelow(10)]) + "=" +
                       std::to_string(rng.nextInt(-1, 1 << 20));
            case 4: return "via";
            default: return "18446744073709551616";
        }
    };

    int accepted = 0;
    for (int trial = 0; trial < 2000; ++trial)
    {
        std::string text;
        if (rng.nextBernoulli(0.9))
            text += "devices " +
                    std::to_string(rng.nextInt(1, 9)) + "\n";
        const int lines = rng.nextInt(0, 8);
        for (int l = 0; l < lines; ++l)
        {
            switch (rng.nextInt(0, 5))
            {
                case 0: text += "link"; break;
                case 1: text += "route"; break;
                case 2: text += "devices"; break;
                case 3: text += "rack"; break;
                case 4: text += "linkfault"; break;
                default: text += token(); break;
            }
            const int toks = rng.nextInt(0, 6);
            for (int t = 0; t < toks; ++t) text += " " + token();
            text += rng.nextBernoulli(0.1) ? " # tail\n" : "\n";
        }

        auto parsed = Topology::parse(text);
        if (!parsed.ok())
        {
            EXPECT_EQ(parsed.status().code(),
                      ErrorCode::InvalidArgument)
                << text;
            continue;
        }
        ++accepted;
        const Topology& topo = parsed.value();
        ASSERT_GE(topo.numDevices(), 1u) << text;
        for (const gpusim::LinkFault& f : topo.linkFaults())
        {
            // Accepted schedules must satisfy their own invariants:
            // real endpoints on a real link, loss in (0, 1], degrade
            // factors that actually divide bandwidth.
            EXPECT_NE(topo.link(f.a, f.b), nullptr) << text;
            EXPECT_GE(f.loss_rate, 0.0) << text;
            EXPECT_LE(f.loss_rate, 1.0) << text;
            if (f.degrade_at_us >= 0.0)
            {
                EXPECT_GE(f.degrade_factor, 2u) << text;
            }
        }
        for (std::size_t a = 0; a < topo.numDevices(); ++a)
            for (std::size_t b = 0; b < topo.numDevices(); ++b)
                if (const gpusim::LinkSpec* link = topo.link(a, b))
                {
                    EXPECT_GT(link->bytes_per_us, 0u) << text;
                    // transferNs on a linked pair must succeed.
                    EXPECT_TRUE(topo.transferNs(a, b, 4096).ok())
                        << text;
                }
    }
    // The soup must exercise the accept path too, or the invariant
    // checks above are vacuous.
    EXPECT_GT(accepted, 50);
}

} // namespace

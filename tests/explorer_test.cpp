/**
 * @file
 * The fault-point explorers' shared sweep and bisection shrink
 * (serve::exploreBoundaries), driven by synthetic predicates: no
 * fleet, no scenario, so every case runs in microseconds and the
 * shrink path, which no real scenario reaches while the contracts
 * hold, is exercised directly.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/explorer.hpp"

namespace {

using Points = std::vector<std::uint64_t>;

/** A predicate that fails exactly where @p fails says so, and logs
 *  every point it was asked about. */
serve::PointCheck
predicate(Points& asked, bool (*fails)(std::uint64_t))
{
    return [&asked, fails](std::uint64_t k) {
        asked.push_back(k);
        return fails(k) ? std::vector<std::string>{"fails"}
                        : std::vector<std::string>{};
    };
}

bool
never(std::uint64_t)
{
    return false;
}

TEST(ExploreBoundaries, SweepIsEvenlySpacedWithBothEndpoints)
{
    Points asked;
    const serve::ExploreReport rep =
        serve::exploreBoundaries(100, 5, true, predicate(asked, never));
    EXPECT_EQ(rep.baseline_end, 100u);
    EXPECT_EQ(rep.points_tested, (Points{0, 25, 50, 75, 100}));
    EXPECT_EQ(asked, rep.points_tested);
    EXPECT_TRUE(rep.passed());
    EXPECT_EQ(rep.min_failing, 0u);
}

TEST(ExploreBoundaries, ZeroBudgetTestsEveryBoundary)
{
    Points asked;
    const serve::ExploreReport rep =
        serve::exploreBoundaries(9, 0, true, predicate(asked, never));
    Points every;
    for (std::uint64_t k = 0; k <= 9; ++k)
        every.push_back(k);
    EXPECT_EQ(rep.points_tested, every);
}

TEST(ExploreBoundaries, BudgetAboveTheDomainIsCappedAndDeduplicated)
{
    Points asked;
    const serve::ExploreReport rep =
        serve::exploreBoundaries(3, 50, true, predicate(asked, never));
    EXPECT_EQ(rep.points_tested, (Points{0, 1, 2, 3}));
}

TEST(ExploreBoundaries, EmptyDomainTestsOnlyZero)
{
    Points asked;
    EXPECT_EQ(serve::exploreBoundaries(0, 16, true,
                                       predicate(asked, never))
                  .points_tested,
              (Points{0}));
    EXPECT_EQ(serve::exploreBoundaries(0, 0, true,
                                       predicate(asked, never))
                  .points_tested,
              (Points{0}));
}

bool
from37(std::uint64_t k)
{
    return k >= 37;
}

TEST(ExploreBoundaries, BisectionShrinksToTheFirstFailingPoint)
{
    Points asked;
    const serve::ExploreReport rep = serve::exploreBoundaries(
        100, 5, true, predicate(asked, from37));
    ASSERT_FALSE(rep.passed());
    ASSERT_EQ(rep.failures.size(), 3u);
    EXPECT_EQ(rep.failures[0].point, 50u);
    EXPECT_EQ(rep.failures[1].point, 75u);
    EXPECT_EQ(rep.failures[2].point, 100u);
    EXPECT_EQ(rep.failures[0].violations,
              std::vector<std::string>{"fails"});
    EXPECT_EQ(rep.min_failing, 37u);
    // The sweep, then the probes between 25 (passes) and 50.
    EXPECT_EQ(rep.points_tested,
              (Points{0, 25, 50, 75, 100, 37, 31, 34, 35, 36}));
    EXPECT_EQ(asked, rep.points_tested);
}

TEST(ExploreBoundaries, WithoutBisectionStopsAtTheFirstFailingPoint)
{
    Points asked;
    const serve::ExploreReport rep = serve::exploreBoundaries(
        100, 5, false, predicate(asked, from37));
    EXPECT_EQ(rep.min_failing, 50u);
    EXPECT_EQ(rep.points_tested, (Points{0, 25, 50, 75, 100}));
}

bool
everywhere(std::uint64_t)
{
    return true;
}

TEST(ExploreBoundaries, FailureAtZeroNeedsNoBisectionProbes)
{
    Points asked;
    const serve::ExploreReport rep = serve::exploreBoundaries(
        100, 5, true, predicate(asked, everywhere));
    EXPECT_EQ(rep.failures.size(), 5u);
    EXPECT_EQ(rep.min_failing, 0u);
    EXPECT_EQ(rep.points_tested, (Points{0, 25, 50, 75, 100}));
}

bool
only50(std::uint64_t k)
{
    return k == 50;
}

TEST(ExploreBoundaries, LoneFailureShrinksToAPassingPredecessor)
{
    Points asked;
    const serve::ExploreReport rep = serve::exploreBoundaries(
        100, 5, true, predicate(asked, only50));
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].point, 50u);
    EXPECT_EQ(rep.min_failing, 50u);
    // The shrink probed down to 49 and found it passing.
    ASSERT_FALSE(rep.points_tested.empty());
    EXPECT_EQ(rep.points_tested.back(), 49u);
    EXPECT_FALSE(only50(rep.min_failing - 1));
}

} // namespace

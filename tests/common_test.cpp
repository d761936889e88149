/** @file Unit tests for the common utilities. */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/table.hpp"

namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    common::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    common::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    common::Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextIntInclusiveBounds)
{
    common::Rng rng(7);
    std::set<int> seen;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.nextInt(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u) << "all values in [3,6] should occur";
}

TEST(Rng, DoubleInUnitInterval)
{
    common::Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    common::Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian(2.0, 3.0);
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, ZipfFavorsLowRanks)
{
    common::Rng rng(13);
    std::size_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::size_t r = rng.nextZipf(1000, 1.05);
        ASSERT_LT(r, 1000u);
        if (r < 10)
            ++low;
        if (r >= 500)
            ++high;
    }
    EXPECT_GT(low, high * 3)
        << "Zipf mass must concentrate at low ranks";
}

TEST(Rng, ShuffleIsPermutation)
{
    common::Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Table, AlignsAndRendersRows)
{
    common::Table t({"a", "bbbb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| bbbb |"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    common::Table t({"x", "y"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(common::Table::fmt(3.14159, 2), "3.14");
}

} // namespace

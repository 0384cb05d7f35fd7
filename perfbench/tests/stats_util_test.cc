#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats_util.hh"

using namespace perfbench;

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({7.0}), 7.0);
}

TEST(PercentileOf, NearestRankDefinition)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentileOf(v, 50.0).value, 50.0);
    EXPECT_EQ(percentileOf(v, 99.0).value, 99.0);
    EXPECT_EQ(percentileOf(v, 100.0).value, 100.0);
    EXPECT_EQ(percentileOf(v, 0.0).value, 1.0);
}

TEST(PercentileOf, FixedLevelWithEvidence)
{
    std::vector<double> v;
    for (int i = 200; i >= 1; --i)
        v.push_back(i);
    const TailPercentile t = percentileOf(v, 90.0);
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 180.0);
    EXPECT_EQ(t.samples, 200u);
    EXPECT_EQ(t.beyond, 20u);

    const TailPercentile empty = percentileOf({}, 99.0);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_EQ(empty.value, 0.0);
}

TEST(TailPercentile, PicksHighestWithTenBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    const TailPercentile t = tailPercentile(v);
    EXPECT_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackDownTheLadder)
{
    std::vector<double> v(999, 1.0);
    v.push_back(5.0);
    // 999 samples leave only 9 beyond p99: p90 is the highest.
    v.pop_back();
    TailPercentile t = tailPercentile(v);
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 999u);
    EXPECT_GE(t.beyond, 10u);

    t = tailPercentile(std::vector<double>(20, 2.0));
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailPercentile(std::vector<double>(19, 2.0));
    EXPECT_EQ(t.percentile, 0.0);
    EXPECT_EQ(t.samples, 19u);
}

TEST(TailPercentile, UnsortedInputAndP999)
{
    std::vector<double> v;
    for (int i = 10000; i >= 1; --i)
        v.push_back(i);
    const TailPercentile t = tailPercentile(v);
    EXPECT_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.value, 9990.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Digest, KnownVectorsAndOrderSensitivity)
{
    Digest empty;
    EXPECT_EQ(empty.hex(), "cbf29ce484222325");

    Digest a;
    a.addBytes("a", 1);
    // FNV-1a/64 of "a".
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);

    Digest x, y;
    x.add(std::uint64_t{1});
    x.add(std::uint64_t{2});
    y.add(std::uint64_t{2});
    y.add(std::uint64_t{1});
    EXPECT_NE(x.value(), y.value());
}

TEST(Digest, DoublesCompareByBits)
{
    Digest pz, nz;
    pz.add(0.0);
    nz.add(-0.0);
    EXPECT_NE(pz.value(), nz.value());

    Digest one, next;
    one.add(1.0);
    next.add(std::nextafter(1.0, 2.0));
    EXPECT_NE(one.value(), next.value());
}

#include "stats.hpp"

#include <gtest/gtest.h>

namespace inframe::perfbench {
namespace {

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod)
{
    const Quartiles ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(ten.q1, 2.75);
    EXPECT_DOUBLE_EQ(ten.q2, 5.5);
    EXPECT_DOUBLE_EQ(ten.q3, 8.25);

    const Quartiles unsorted = quartiles({7, 1, 3, 5});
    EXPECT_DOUBLE_EQ(unsorted.q1, 1.5);
    EXPECT_DOUBLE_EQ(unsorted.q2, 4.0);
    EXPECT_DOUBLE_EQ(unsorted.q3, 6.5);

    // Two samples extrapolate past the ends, as Python does.
    const Quartiles two = quartiles({1, 2});
    EXPECT_DOUBLE_EQ(two.q1, 0.75);
    EXPECT_DOUBLE_EQ(two.q2, 1.5);
    EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(Tail, KeepsTenSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i) samples.push_back(i);
    const Tail t = tail(samples);
    ASSERT_TRUE(t.valid);
    EXPECT_DOUBLE_EQ(t.value, 90.0); // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 100u);

    samples.push_back(0.5); // 101 samples: still exactly ten beyond
    const Tail more = tail(samples);
    EXPECT_DOUBLE_EQ(more.value, 90.0);
    EXPECT_NEAR(more.percentile, 100.0 * 91.0 / 101.0, 1e-12);
}

TEST(Tail, TooFewSamplesIsInvalid)
{
    EXPECT_FALSE(tail(std::vector<double>(10, 1.0)).valid);
    const Tail eleven = tail({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
    ASSERT_TRUE(eleven.valid);
    EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

} // namespace
} // namespace inframe::perfbench

//===- tests/support/StatsTest.cpp - Benchmark statistics tests -----------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

TEST(StatsTest, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(geomean({7}), 7.0, 1e-9);
}

TEST(StatsTest, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0) << "unsorted input";
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5) << "even count: middle mean";
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(StatsTest, CiHalfWidthMatchesHandComputation) {
  // n=10 samples 1..10: mean 5.5, sd ≈ 3.0277, t=2.262.
  std::vector<double> Xs;
  for (int I = 1; I <= 10; ++I)
    Xs.push_back(I);
  double Hw = ciHalfWidth95(Xs);
  EXPECT_NEAR(Hw, 2.262 * 3.02765 / std::sqrt(10.0), 1e-3);
  EXPECT_DOUBLE_EQ(ciHalfWidth95({5.0}), 0.0) << "one sample: no interval";
}

TEST(StatsTest, TCriticalValues) {
  EXPECT_NEAR(tCritical95(2), 12.706, 1e-3);
  EXPECT_NEAR(tCritical95(10), 2.262, 1e-3);
  EXPECT_NEAR(tCritical95(1000), 1.96, 1e-3);
}

} // namespace

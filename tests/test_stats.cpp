#include "ccg/common/stats.hpp"

#include <gtest/gtest.h>

#include "ccg/common/expect.hpp"

namespace ccg {
namespace {

TEST(PercentileSketch, InterpolatesOrderStatistics) {
  PercentileSketch p;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0 / 3.0), 20.0);
}

TEST(PercentileSketch, RequiresSamplesAndValidQ) {
  PercentileSketch p;
  EXPECT_THROW(p.quantile(0.5), ContractViolation);
  p.add(1.0);
  EXPECT_THROW(p.quantile(1.5), ContractViolation);
  EXPECT_THROW(p.quantile(-0.1), ContractViolation);
  EXPECT_DOUBLE_EQ(p.quantile(0.99), 1.0);
}

TEST(PercentileSketch, HandlesInsertAfterQuery) {
  PercentileSketch p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
  p.add(1.0);
  p.add(9.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
}

TEST(Log2Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1023);
  h.add(1024);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket_count(1), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(2), 1u);  // 4
  EXPECT_EQ(h.bucket_count(9), 1u);  // 1023
  EXPECT_EQ(h.bucket_count(10), 1u); // 1024
  EXPECT_EQ(h.bucket_count(20), 0u);
  EXPECT_EQ(h.max_bucket(), 10);
}

TEST(Log2Histogram, RendersWithoutCrashing) {
  Log2Histogram h;
  EXPECT_EQ(h.to_string(), "(empty histogram)\n");
  for (std::uint64_t i = 0; i < 100; ++i) h.add(i);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(TrafficCcdf, EqualWeightsDecayLinearly) {
  auto curve = traffic_concentration_ccdf({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve[0].ccdf, 1.0);
  EXPECT_NEAR(curve[2].ccdf, 0.5, 1e-12);   // half the nodes -> half the bytes
  EXPECT_NEAR(curve[4].ccdf, 0.0, 1e-12);
}

TEST(TrafficCcdf, ConcentratedWeightsDropFast) {
  // One elephant and 9 mice: the first node covers ~91% of traffic.
  std::vector<double> weights{1000.0};
  for (int i = 0; i < 9; ++i) weights.push_back(10.0);
  auto curve = traffic_concentration_ccdf(weights);
  EXPECT_NEAR(curve[1].fraction_of_nodes, 0.1, 1e-12);
  EXPECT_LT(curve[1].ccdf, 0.1);
}

TEST(TrafficCcdf, HandlesDegenerateInputs) {
  EXPECT_TRUE(traffic_concentration_ccdf({}).empty());
  EXPECT_TRUE(traffic_concentration_ccdf({0.0, 0.0}).empty());
}

TEST(Gini, KnownValues) {
  EXPECT_DOUBLE_EQ(gini_coefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({5.0}), 0.0);
  EXPECT_NEAR(gini_coefficient({1.0, 1.0, 1.0, 1.0}), 0.0, 1e-12);
  // All weight on one of n: gini -> (n-1)/n.
  EXPECT_NEAR(gini_coefficient({0.0, 0.0, 0.0, 10.0}), 0.75, 1e-12);
}

TEST(Gini, MonotoneInConcentration) {
  const double even = gini_coefficient({5, 5, 5, 5, 5, 5, 5, 5});
  const double mild = gini_coefficient({1, 2, 3, 4, 5, 6, 7, 12});
  const double harsh = gini_coefficient({0, 0, 0, 0, 1, 1, 2, 36});
  EXPECT_LT(even, mild);
  EXPECT_LT(mild, harsh);
}

}  // namespace
}  // namespace ccg

#include "report.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankOnUnsortedSamples) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50.0);
  EXPECT_EQ(Percentile(v, 90), 90.0);
  EXPECT_EQ(Percentile(v, 99), 99.0);
  EXPECT_EQ(Percentile(v, 100), 100.0);
  EXPECT_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  // Rank ceil(0.5 * 5) = 3.
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 50), 3.0);
}

TEST(PercentileTest, RankIsExactAtIntegerBoundaries) {
  // 0.999 * 1000 is 999.0000000000001 in floating point; the rank is
  // still 999, not 1000.
  EXPECT_EQ(Percentile(OneTo(1000), 99.9), 999.0);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990.0);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_FALSE(SupportsPercentile(999, 99));  // 9 beyond rank 990
  EXPECT_TRUE(SupportsPercentile(1000, 99));  // 10 beyond rank 990
  EXPECT_FALSE(SupportsPercentile(99, 90));
  EXPECT_TRUE(SupportsPercentile(100, 90));
  EXPECT_TRUE(SupportsPercentile(20, 50));
  EXPECT_FALSE(SupportsPercentile(0, 50));
}

TEST(PercentileTest, ShedRequestsCountAboveEveryLimit) {
  std::vector<double> v = OneTo(100);
  for (int i = 0; i < 5; ++i) v.push_back(kMissed);  // 105 samples
  EXPECT_EQ(Percentile(v, 50), 53.0);
  EXPECT_EQ(Percentile(v, 95), 100.0);   // rank 100
  EXPECT_TRUE(std::isinf(Percentile(v, 96)));  // rank 101 is a shed one
}

TEST(ResultJsonTest, NonFiniteValueIsWrittenAsFiniteNumber) {
  Result r = EndToEndTemplate();
  r.attempted = 3;
  r.failed = 1;
  r.Set("reopen_s", kMissed);
  r.Set("throughput_qps", 1.5);
  const std::string json = ResultJson(r);
  EXPECT_NE(json.find("\"reopen_s\": {\"value\": 1000000000000, "
                      "\"unit\": \"s\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"throughput_qps\": {\"value\": 1.5, \"unit\": "
                      "\"1/s\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"attempted\": 3, \"failed\": 1"), std::string::npos);
}

TEST(ResultTest, UnknownMetricIsAnError) {
  Result r = PerLayerTemplate();
  EXPECT_THROW(r.Set("no.such.metric", 1.0), std::logic_error);
}

}  // namespace
}  // namespace perfbench

// Histogram percentile + snapshot-merge semantics: exact-bucket
// quantiles (upper bound of the bucket holding the rank-th sample,
// clamped to the observed max) and bucket-wise sample accumulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/histogram_merge.h"
#include "telemetry/telemetry.h"

namespace memcim::telemetry {
namespace {

HistogramSample sample_of(std::vector<double> bounds,
                          std::vector<std::uint64_t> buckets, double min,
                          double max) {
  HistogramSample s;
  s.name = "test";
  s.upper_bounds = std::move(bounds);
  s.bucket_counts = std::move(buckets);
  for (const std::uint64_t c : s.bucket_counts) s.count += c;
  s.min = min;
  s.max = max;
  return s;
}

TEST(HistogramPercentile, EmptyHistogramIsZero) {
  const HistogramSample s = sample_of({1.0, 2.0}, {0, 0, 0}, 0.0, 0.0);
  EXPECT_EQ(s.percentile(50.0), 0.0);
  EXPECT_EQ(s.p99(), 0.0);
}

TEST(HistogramPercentile, PicksBucketUpperBound) {
  // 10 samples: 4 in (<=1], 4 in (1,2], 2 in (2,4].
  const HistogramSample s =
      sample_of({1.0, 2.0, 4.0}, {4, 4, 2, 0}, 0.25, 3.5);
  EXPECT_EQ(s.percentile(10.0), 1.0);  // rank 1 -> first bucket
  EXPECT_EQ(s.percentile(40.0), 1.0);  // rank 4 -> still first bucket
  EXPECT_EQ(s.p50(), 2.0);             // rank 5 -> second bucket
  EXPECT_EQ(s.percentile(80.0), 2.0);  // rank 8 -> second bucket
  // rank 9/10 land in the (2,4] bucket, clamped to the observed max.
  EXPECT_EQ(s.percentile(90.0), 3.5);
  EXPECT_EQ(s.p99(), 3.5);
}

TEST(HistogramPercentile, OverflowBucketResolvesToMax) {
  const HistogramSample s = sample_of({1.0}, {1, 3}, 0.5, 100.0);
  EXPECT_EQ(s.percentile(25.0), 1.0);
  EXPECT_EQ(s.p95(), 100.0);
}

TEST(HistogramPercentile, ExtremeQuantilesClampToFirstAndLastRank) {
  const HistogramSample s = sample_of({1.0, 2.0}, {2, 2, 0}, 0.1, 1.9);
  EXPECT_EQ(s.percentile(0.0), 1.0);    // rank clamps to 1
  EXPECT_EQ(s.percentile(100.0), 1.9);  // rank = count, clamped to max
}

TEST(HistogramMerge, AccumulatesBucketsAndUnionsMinMax) {
  HistogramSample a = sample_of({1.0, 2.0}, {3, 1, 0}, 0.2, 1.5);
  const HistogramSample b = sample_of({1.0, 2.0}, {1, 2, 4}, 0.1, 9.0);
  ASSERT_TRUE(merge(a, b));
  EXPECT_EQ(a.count, 11u);
  EXPECT_EQ(a.bucket_counts, (std::vector<std::uint64_t>{4, 3, 4}));
  EXPECT_EQ(a.min, 0.1);
  EXPECT_EQ(a.max, 9.0);
  EXPECT_EQ(a.p99(), 9.0);
}

TEST(HistogramMerge, EmptyLeftTakesRightMinMax) {
  // An empty snapshot's min/max are +inf/-inf; merging must adopt the
  // other side's observed extremes, not keep the sentinels.
  HistogramSample a = sample_of({1.0}, {0, 0}, 0.0, 0.0);
  a.min = std::numeric_limits<double>::infinity();
  a.max = -std::numeric_limits<double>::infinity();
  const HistogramSample b = sample_of({1.0}, {2, 0}, 0.3, 0.7);
  ASSERT_TRUE(merge(a, b));
  EXPECT_EQ(a.min, 0.3);
  EXPECT_EQ(a.max, 0.7);
}

TEST(HistogramMerge, RejectsMismatchedBounds) {
  HistogramSample a = sample_of({1.0, 2.0}, {1, 1, 0}, 0.5, 1.5);
  const HistogramSample untouched = a;
  const HistogramSample b = sample_of({1.0, 4.0}, {1, 1, 0}, 0.5, 1.5);
  EXPECT_FALSE(merge(a, b));
  EXPECT_EQ(a.count, untouched.count);
  EXPECT_EQ(a.bucket_counts, untouched.bucket_counts);
}

TEST(HistogramPercentile, LiveHistogramThroughSnapshot) {
  set_enabled(true);
  Histogram& h = Registry::global().histogram(
      "test.percentile.live", exponential_bounds(1.0, 2.0, 8));
  h.reset();
  for (int i = 0; i < 90; ++i) h.record(1.0);   // <=1
  for (int i = 0; i < 9; ++i) h.record(3.0);    // <=4
  h.record(200.0);                              // <=256
  const MetricsSnapshot snap = Registry::global().snapshot();
  const HistogramSample* s = snap.histogram("test.percentile.live");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 100u);
  EXPECT_EQ(s->p50(), 1.0);
  EXPECT_EQ(s->p95(), 4.0);
  EXPECT_EQ(s->p99(), 4.0);
  EXPECT_EQ(s->percentile(100.0), 200.0);  // clamped to the observed max
  h.reset();
}

}  // namespace
}  // namespace memcim::telemetry

// snapshot_delta (tests/support/) subtracts two whole-registry
// snapshots: its arithmetic must be exact and its error paths must
// refuse snapshots that are not two points on the same registry epoch.
#include <gtest/gtest.h>

#include <string>

#include "support/snapshot_delta.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

using telemetry::CounterSample;
using telemetry::GaugeSample;
using telemetry::HistogramSample;
using telemetry::MetricsSnapshot;
using telemetry::snapshot_delta;

HistogramSample make_hist(const std::string& name,
                          std::vector<double> bounds,
                          std::vector<std::uint64_t> buckets,
                          std::uint64_t count) {
  HistogramSample h;
  h.name = name;
  h.upper_bounds = std::move(bounds);
  h.bucket_counts = std::move(buckets);
  h.count = count;
  return h;
}

TEST(SnapshotDelta, CountersSubtractExactly) {
  MetricsSnapshot earlier;
  earlier.counters = {{"a", 10}, {"b", 0}};
  MetricsSnapshot later;
  later.counters = {{"a", 25}, {"b", 7}, {"registered.mid.interval", 3}};

  MetricsSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot_delta(later, earlier, out, error)) << error;
  EXPECT_EQ(out.counter("a"), 15u);
  EXPECT_EQ(out.counter("b"), 7u);
  // Absent from `earlier` means the counter registered mid-interval
  // and its whole value belongs to this interval.
  EXPECT_EQ(out.counter("registered.mid.interval"), 3u);
}

TEST(SnapshotDelta, GaugesKeepTheLaterValue) {
  MetricsSnapshot earlier;
  earlier.gauges = {{"g", 1.5}};
  MetricsSnapshot later;
  later.gauges = {{"g", 9.75}};

  MetricsSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot_delta(later, earlier, out, error)) << error;
  ASSERT_EQ(out.gauges.size(), 1u);
  EXPECT_EQ(out.gauges[0].value, 9.75);
}

TEST(SnapshotDelta, HistogramsSubtractPerBucket) {
  MetricsSnapshot earlier;
  earlier.histograms = {make_hist("h", {1.0, 2.0}, {3, 1, 0}, 4)};
  MetricsSnapshot later;
  later.histograms = {make_hist("h", {1.0, 2.0}, {5, 4, 2}, 11)};

  MetricsSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot_delta(later, earlier, out, error)) << error;
  const HistogramSample* d = out.histogram("h");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 7u);
  ASSERT_EQ(d->bucket_counts.size(), 3u);
  EXPECT_EQ(d->bucket_counts[0], 2u);
  EXPECT_EQ(d->bucket_counts[1], 3u);
  EXPECT_EQ(d->bucket_counts[2], 2u);
}

TEST(SnapshotDelta, CounterUnderflowIsRefused) {
  MetricsSnapshot earlier;
  earlier.counters = {{"a", 100}};
  MetricsSnapshot later;
  later.counters = {{"a", 99}};

  MetricsSnapshot out;
  out.counters = {{"sentinel", 1}};
  std::string error;
  EXPECT_FALSE(snapshot_delta(later, earlier, out, error));
  EXPECT_NE(error.find("went backwards"), std::string::npos) << error;
  // `out` untouched on failure.
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].name, "sentinel");
}

TEST(SnapshotDelta, VanishedNonzeroCounterIsRefused) {
  MetricsSnapshot earlier;
  earlier.counters = {{"a", 5}};
  MetricsSnapshot later;  // no "a" at all — these are swapped snapshots

  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(snapshot_delta(later, earlier, out, error));
  EXPECT_NE(error.find("missing later"), std::string::npos) << error;
}

TEST(SnapshotDelta, HistogramBoundsChangeIsRefused) {
  MetricsSnapshot earlier;
  earlier.histograms = {make_hist("h", {1.0, 2.0}, {0, 0, 0}, 0)};
  MetricsSnapshot later;
  later.histograms = {make_hist("h", {1.0, 4.0}, {0, 0, 0}, 0)};

  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(snapshot_delta(later, earlier, out, error));
  EXPECT_NE(error.find("bounds"), std::string::npos) << error;
}

TEST(SnapshotDelta, HistogramBucketUnderflowIsRefused) {
  MetricsSnapshot earlier;
  earlier.histograms = {make_hist("h", {1.0}, {2, 0}, 2)};
  MetricsSnapshot later;
  later.histograms = {make_hist("h", {1.0}, {1, 1}, 2)};

  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(snapshot_delta(later, earlier, out, error));
}

TEST(SnapshotDelta, RegistryRoundTrip) {
  telemetry::set_enabled(true);
  telemetry::Counter& c =
      telemetry::Registry::global().counter("delta.roundtrip.counter");
  telemetry::Histogram& h = telemetry::Registry::global().histogram(
      "delta.roundtrip.hist", {1.0, 10.0});
  c.add(2);
  h.record(0.5);
  MetricsSnapshot earlier = telemetry::Registry::global().snapshot();
  c.add(40);
  h.record(5.0);
  h.record(100.0);
  const MetricsSnapshot later = telemetry::Registry::global().snapshot();

  MetricsSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot_delta(later, earlier, out, error)) << error;
  EXPECT_EQ(out.counter("delta.roundtrip.counter"), 40u);
  const HistogramSample* d = out.histogram("delta.roundtrip.hist");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 2u);
  EXPECT_EQ(d->bucket_counts[1], 1u);  // the 5.0
  EXPECT_EQ(d->bucket_counts[2], 1u);  // the overflow 100.0
}

}  // namespace
}  // namespace memcim

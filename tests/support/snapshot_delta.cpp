#include "support/snapshot_delta.h"

#include <utility>

namespace memcim::telemetry {

bool snapshot_delta(const MetricsSnapshot& later,
                    const MetricsSnapshot& earlier, MetricsSnapshot& out,
                    std::string& error) {
  MetricsSnapshot result;
  result.counters.reserve(later.counters.size());
  for (const CounterSample& c : later.counters) {
    const std::uint64_t before = earlier.counter(c.name);
    if (before > c.value) {
      error = "counter '" + c.name +
              "' went backwards (registry reset between snapshots?)";
      return false;
    }
    result.counters.push_back({c.name, c.value - before});
  }
  // A nonzero counter that vanished means the "later" snapshot predates
  // the "earlier" one (or came from a different registry).
  for (const CounterSample& before : earlier.counters) {
    if (before.value == 0) continue;
    bool present = false;
    for (const CounterSample& c : later.counters)
      if (c.name == before.name) {
        present = true;
        break;
      }
    if (!present) {
      error = "counter '" + before.name +
              "' present earlier but missing later (snapshots swapped?)";
      return false;
    }
  }
  result.gauges = later.gauges;
  result.histograms.reserve(later.histograms.size());
  for (const HistogramSample& h : later.histograms) {
    const HistogramSample* before = earlier.histogram(h.name);
    HistogramSample d = h;  // keeps bounds and the later min/max
    if (before != nullptr) {
      if (before->upper_bounds != h.upper_bounds ||
          before->bucket_counts.size() != h.bucket_counts.size()) {
        error = "histogram '" + h.name + "' changed bounds between snapshots";
        return false;
      }
      if (before->count > h.count) {
        error = "histogram '" + h.name +
                "' count went backwards (registry reset between snapshots?)";
        return false;
      }
      for (std::size_t i = 0; i < d.bucket_counts.size(); ++i) {
        if (before->bucket_counts[i] > h.bucket_counts[i]) {
          error = "histogram '" + h.name + "' bucket " + std::to_string(i) +
                  " went backwards";
          return false;
        }
        d.bucket_counts[i] -= before->bucket_counts[i];
      }
      d.count -= before->count;
    }
    result.histograms.push_back(std::move(d));
  }
  out = std::move(result);
  return true;
}

}  // namespace memcim::telemetry

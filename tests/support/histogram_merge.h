// Merging two histogram snapshots, for the percentile tests.  No binary
// merges samples: snapshots already merge the per-thread shards.
#pragma once

#include <algorithm>
#include <cstddef>

#include "telemetry/telemetry.h"

namespace memcim::telemetry {

/// Accumulate `other` into `into` (bucket-wise u64 adds, min/max
/// union).  Both samples must share identical bounds; returns false
/// (and leaves `into` untouched) when they don't.
inline bool merge(HistogramSample& into, const HistogramSample& other) {
  if (into.upper_bounds != other.upper_bounds ||
      into.bucket_counts.size() != other.bucket_counts.size())
    return false;
  for (std::size_t i = 0; i < into.bucket_counts.size(); ++i)
    into.bucket_counts[i] += other.bucket_counts[i];
  into.count += other.count;
  if (other.count > 0) {
    into.min = into.count == other.count ? other.min
                                         : std::min(into.min, other.min);
    into.max = into.count == other.count ? other.max
                                         : std::max(into.max, other.max);
  }
  return true;
}

}  // namespace memcim::telemetry

// Interval arithmetic on two whole-registry snapshots.  No binary takes
// it (the time-series sampler reads only the metrics it reports); it is
// kept with the test written for it.
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace memcim::telemetry {

/// `out` = `later` − `earlier`, two snapshots of the same registry.
/// Counters subtract (a metric absent from `earlier` registered
/// mid-interval and subtracts from 0); histograms subtract per-bucket,
/// keeping the later min/max (interval extrema are not tracked); gauges
/// keep the later value (they are instantaneous, not cumulative).
/// Returns false with `error` set — and `out` untouched — when any
/// counter or bucket would underflow or a histogram's bounds changed
/// between the snapshots: both mean `earlier` is not actually an earlier
/// snapshot of the same registry epoch (a reset in between, or snapshots
/// swapped).  Because every input is an exact u64 tally, the delta is
/// bitwise deterministic at any thread count.
[[nodiscard]] bool snapshot_delta(const MetricsSnapshot& later,
                                  const MetricsSnapshot& earlier,
                                  MetricsSnapshot& out, std::string& error);

}  // namespace memcim::telemetry

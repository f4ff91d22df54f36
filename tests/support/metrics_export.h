// Flat exports of a metrics snapshot: one JSON document, or CSV rows.
// No binary writes them (the benches embed snapshots in their
// envelopes through JsonWriter); they are kept with the test written
// for them.
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace memcim::telemetry {

/// Flat JSON document of a metrics snapshot:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snapshot);

/// CSV (kind,name,value) rows of a metrics snapshot; histograms emit
/// one row per bucket plus count/min/max rows.
[[nodiscard]] std::string metrics_csv(const MetricsSnapshot& snapshot);

}  // namespace memcim::telemetry

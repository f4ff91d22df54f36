// The serving property tests' shrinker: the shortest trace prefix on
// which a predicate already fails (the same linear-scan discipline as
// minimal_failing_prefix in program_golden.h), so a 200-request
// property failure reports as the few requests that actually matter.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "serving/request.h"

namespace memcim::serving {

/// Smallest prefix length L (1 ≤ L ≤ trace size) for which
/// `holds(prefix)` is already false; nullopt when the property holds
/// on every prefix (including the full trace).  Linear scan from the
/// shortest prefix — the exact minimum.
[[nodiscard]] std::optional<std::size_t> minimal_failing_trace_prefix(
    const std::vector<Request>& trace,
    const std::function<bool(const std::vector<Request>&)>& holds);

}  // namespace memcim::serving

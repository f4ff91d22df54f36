// Per-layer cost attribution: exact u64 energy/pulse/flit/span-time
// breakdowns keyed by (layer, tile, shard), reconciled bitwise against
// the global cost books.
//
// Every quantum recorded here is also recorded in a global tally
// (device energy books, NoC dynamic_energy, fabric busy cycles), so
// the book answers "where did it go?" without inventing a second
// source of truth: summing a column over all keys must reproduce the
// global number exactly.  Records are u64 at fixed quanta (attojoules
// for energy), merged under a mutex — so totals are bitwise identical
// at any MEMCIM_THREADS, same contract as the counter registry.
//
// Like the rest of telemetry this sits below common/, so energy enters
// as a raw double in joules (units.h lives above us) and is quantised
// once per recorded event via to_attojoules().
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.h"

namespace memcim::telemetry {

/// The architectural layer a cost is charged to.  Mirrors the
/// simulator's layering: device switching, crossbar solves, stateful
/// logic, network-on-chip transport, and architecture-level occupancy.
enum class AttrLayer : std::uint8_t { kDevice, kCrossbar, kLogic, kNoc, kArch };

/// Stable lowercase name ("device", "crossbar", ...).
[[nodiscard]] std::string_view attr_layer_name(AttrLayer layer);

/// "Not chargeable to any shard" marker (host-side / fabric-wide work).
inline constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

/// Quantise joules to attojoules (the repo-wide energy quantum; see
/// crs_cell.switch_energy_aj).  One rounding per recorded event keeps
/// per-key sums bitwise reproducible.  Negative and NaN inputs clamp
/// to 0 (a cost book only holds non-negative charges; wrapping a
/// negative llround into u64 would inject a ~1.8e19 aJ phantom), and
/// inputs past the llround-representable range (> ~9.2 J per event)
/// saturate instead of hitting llround's out-of-range UB.
[[nodiscard]] inline std::uint64_t to_attojoules(double joules) {
  const double aj = joules * 1e18;
  if (!(aj > 0.0)) return 0;  // negative, -0.0, or NaN
  // Largest double below 2^63; above it llround is undefined.
  constexpr double kMaxExact = 9223372036854774784.0;
  if (aj >= kMaxExact) return static_cast<std::uint64_t>(kMaxExact);
  return static_cast<std::uint64_t>(std::llround(aj));
}

struct AttrKey {
  AttrLayer layer = AttrLayer::kDevice;
  std::uint32_t tile = kNoTile;
  std::uint32_t shard = kNoShard;
  auto operator<=>(const AttrKey&) const = default;
};

/// Accumulated costs for one key.  All exact u64 sums.
struct AttrDelta {
  std::uint64_t energy_aj = 0;
  std::uint64_t pulses = 0;
  std::uint64_t flits = 0;
  std::uint64_t span_ns = 0;  ///< virtual busy time (cycles × cycle_ns)

  AttrDelta& operator+=(const AttrDelta& o) {
    energy_aj += o.energy_aj;
    pulses += o.pulses;
    flits += o.flits;
    span_ns += o.span_ns;
    return *this;
  }
};

struct AttrRecord {
  AttrKey key;
  AttrDelta delta;
};

/// The process-global attribution book.  record() is enabled()-gated
/// like every other telemetry sink and merges under a mutex — callers
/// record coarse quanta (per shard, per packet), not per-event, so the
/// lock is cold.
class AttributionBook {
 public:
  [[nodiscard]] static AttributionBook& global();

  AttributionBook(const AttributionBook&) = delete;
  AttributionBook& operator=(const AttributionBook&) = delete;

  /// Merge `delta` into `key`'s row and bump the attr.<layer>.* rollup
  /// counters.  No-op while telemetry is disabled.
  void record(const AttrKey& key, const AttrDelta& delta);

  /// All rows, sorted by key.
  [[nodiscard]] std::vector<AttrRecord> snapshot() const;

  /// Column totals over every row (the reconciliation side).
  [[nodiscard]] AttrDelta totals() const;
  /// Column totals restricted to one layer.
  [[nodiscard]] AttrDelta layer_totals(AttrLayer layer) const;

  void reset();

 private:
  AttributionBook() = default;

  mutable std::mutex mutex_;
  std::map<AttrKey, AttrDelta> rows_;
  AttrDelta total_;  ///< the rows' column sums, kept as they book
};

/// Convenience wrappers charging one column; `joules` is quantised via
/// to_attojoules() at the call.
void attribute_energy(AttrLayer layer, std::uint32_t tile, std::uint32_t shard,
                      double joules);
void attribute_pulses(AttrLayer layer, std::uint32_t tile, std::uint32_t shard,
                      std::uint64_t pulses);
void attribute_flits(std::uint32_t tile, std::uint32_t shard,
                     std::uint64_t flits);
void attribute_span_ns(AttrLayer layer, std::uint32_t tile,
                       std::uint32_t shard, std::uint64_t ns);

/// "memcim-attr-v1" JSON document of the book: column totals plus one
/// row per (layer, tile, shard).  memcim-report renders it as the
/// attribution table.
[[nodiscard]] std::string attribution_json();
void write_attribution_json(const std::string& path);

}  // namespace memcim::telemetry

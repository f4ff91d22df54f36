// Declarative service-level objectives over the serving time series,
// evaluated with SRE-style multi-window burn-rate alerting plus
// watchdog rules for failure shapes a quantile target can't see.
//
// Burn rate is the classic definition: with an objective "ratio of
// good events >= target", an interval's burn is
//
//   burn = bad_fraction / (1 - target)
//
// so burn 1.0 consumes the error budget exactly at the allowed pace
// and burn 10 consumes it 10x too fast.  An alert fires only when the
// burn over the *fast* window (default 5 intervals) AND the *slow*
// window (default 60) both exceed the threshold — the fast window
// gives low detection latency, the slow window suppresses one-interval
// blips.  Windows shorter than configured (early in a run) evaluate
// over the samples seen so far.
//
// All inputs are exact interval deltas on the serving layer's virtual
// clock, so every verdict — and the exact HealthEvent sequence — is
// bitwise deterministic at any MEMCIM_THREADS setting.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "serving/request.h"

namespace memcim::monitor {

using serving::kRequestClasses;
using serving::RequestClass;
using serving::VirtualNs;

enum class SloKind : std::uint8_t {
  kAvailability,  ///< good = admitted (not shed); bad = shed arrivals
  kLatency,       ///< good = completions at or under latency_target_ns
};

[[nodiscard]] std::string_view to_string(SloKind kind);

struct SloObjective {
  std::string name;
  SloKind kind = SloKind::kAvailability;
  /// Latency objectives are per-class; ignored for availability.
  RequestClass cls = RequestClass::kAddition;
  /// Required good fraction (e.g. 0.999 = "three nines").
  double target_ratio = 0.999;
  /// Latency bound in virtual ns.  Pick a latency-histogram bucket
  /// bound (64·2^k) so the sampler's bad count is an exact bucket
  /// suffix sum, not an interpolation.
  VirtualNs latency_target_ns = 65536;
  double burn_threshold = 10.0;
  std::size_t fast_window = 5;
  std::size_t slow_window = 60;
};

/// Watchdog rules: cheap structural checks per interval.  A zero
/// threshold disables the rule.
struct WatchdogConfig {
  /// Fire after this many consecutive intervals with queued work but
  /// zero completions (a wedged dispatcher).
  std::size_t stall_intervals = 5;
  /// Fire when any class's queue depth at an interval end reaches this.
  std::size_t queue_high_water = 0;
  /// Fire when an interval's shed fraction exceeds this...
  double shed_spike_rate = 0.0;
  /// ...over at least this many arrivals (suppresses tiny-sample noise).
  std::uint64_t shed_spike_min_arrivals = 100;
};

enum class HealthEventKind : std::uint8_t {
  kBurnRateAlert,
  kBurnRateResolved,
  kStall,
  kStallResolved,
  kQueueHighWater,
  kQueueHighWaterResolved,
  kShedSpike,
  kShedSpikeResolved,
};

[[nodiscard]] std::string_view to_string(HealthEventKind kind);
/// True for the four firing kinds (not the *Resolved pairs).
[[nodiscard]] bool is_alert(HealthEventKind kind);

/// One edge-triggered health transition, stamped with the virtual
/// instant (the interval's end boundary) it was detected at.
struct HealthEvent {
  HealthEventKind kind = HealthEventKind::kBurnRateAlert;
  std::string rule;            ///< objective name or watchdog rule name
  VirtualNs at = 0;            ///< interval end boundary
  std::uint64_t interval = 0;  ///< global interval index
  double value = 0.0;          ///< burn rate / depth / shed fraction
  double threshold = 0.0;
};

struct SloConfig {
  std::vector<SloObjective> objectives;
  WatchdogConfig watchdog;
};

/// The objective set bench_serving runs against the baseline trace:
/// 99.9% availability and per-class latency targets of 65536 virtual
/// ns at the 99.9% level, burn threshold 10 over 5/60-interval
/// windows, plus stall and shed-spike watchdogs.
[[nodiscard]] SloConfig default_serving_slos(std::size_t queue_high_water);

class SloEngine {
 public:
  explicit SloEngine(SloConfig config);

  /// Exact per-interval deltas the engine evaluates.  The sampler
  /// fills this from snapshot deltas (see sampler.h).
  struct IntervalInput {
    VirtualNs begin = 0;
    VirtualNs end = 0;
    std::uint64_t interval = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::array<std::uint64_t, kRequestClasses> class_completed{};
    /// Completions whose latency exceeded the matching objective's
    /// latency_target_ns (exact histogram-bucket suffix counts).
    std::array<std::uint64_t, kRequestClasses> class_bad_latency{};
    std::array<std::size_t, kRequestClasses> queue_depth{};
  };

  /// Evaluate one interval; fired/resolved transitions append to
  /// events() in a fixed order (objectives in config order, then
  /// stall, queue high-water, shed spike).
  void observe(const IntervalInput& in);

  [[nodiscard]] const SloConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return events_;
  }
  /// Count of firing events (is_alert kinds) so far.
  [[nodiscard]] std::uint64_t alerts_fired() const { return alerts_fired_; }
  /// True while any objective or watchdog is in the firing state.
  [[nodiscard]] bool any_active() const;

 private:
  struct ObjectiveState {
    /// The slow window's (bad, total) interval pairs, and their sums.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> window;
    std::uint64_t bad = 0;
    std::uint64_t total = 0;
    bool active = false;
  };

  void emit(HealthEventKind kind, const std::string& rule,
            const IntervalInput& in, double value, double threshold);

  SloConfig config_;
  std::vector<ObjectiveState> objectives_;
  std::vector<HealthEvent> events_;
  std::uint64_t alerts_fired_ = 0;
  std::size_t stall_run_ = 0;
  bool stall_active_ = false;
  bool queue_active_ = false;
  bool shed_active_ = false;
};

}  // namespace memcim::monitor

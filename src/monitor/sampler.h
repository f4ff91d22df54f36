// The time-series sampler: a ServiceProbe that turns the serving
// layer's end-of-run aggregate telemetry into a per-interval series.
//
// At every sample boundary (a multiple of the configured virtual-ns
// period) the sampler reads the serving counters and per-class latency
// histograms it reports, and the attribution book, subtracts their
// values at the previous boundary (exact u64 subtraction, no
// estimation), and appends one Sample to a bounded ring.  It resolves
// those metrics once per run and registers none of them: a metric the
// service has not registered yet reads 0 until it appears.  Interval
// latency quantiles come from per-interval histogram-bucket deltas
// alone (bucket upper bounds, no min/max clamp — the live histogram's
// min/max span the whole process, not the interval), so a latency
// cliff in interval 17 is visible in interval 17 even when the
// run-wide p99 barely moves, and the series is independent of any
// earlier run sharing the registry.
//
// Everything recorded is derived from exact thread-invariant tallies
// on the virtual clock, so the whole series — and the SLO engine's
// HealthEvent sequence evaluated from it — is bitwise identical at
// any MEMCIM_THREADS setting.  (Trace ids are deliberately *not*
// recorded in samples: span ids are process-unique, not
// run-reproducible.)
//
// The sampler is enabled()-gated like every telemetry sink: with
// telemetry disabled it records nothing and costs one branch per
// boundary.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "monitor/slo.h"
#include "serving/service.h"
#include "telemetry/telemetry.h"

namespace memcim::monitor {

struct SamplerConfig {
  /// Sampling period on the serving virtual clock.
  VirtualNs period_ns = 100'000;
  /// Ring capacity: the oldest samples drop past this (the drop count
  /// is reported, never silent).
  std::size_t capacity = 4096;
};

/// One closed interval [begin, end) of the series.  Counts are exact
/// interval deltas; derived rates are normalised by the actual
/// interval length (the final interval may be shorter than the
/// period).
struct Sample {
  std::uint64_t interval = 0;  ///< global index (survives ring drops)
  VirtualNs begin = 0;
  VirtualNs end = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t partial_batches = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t flits = 0;
  /// Attribution-book column deltas (exact u64; see attribution.h).
  std::uint64_t energy_aj = 0;
  std::uint64_t pulses = 0;
  /// Queue depth per class at the interval's end boundary.
  std::array<std::size_t, kRequestClasses> queue_depth{};
  struct PerClass {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    double p50_ns = 0.0;
    double p95_ns = 0.0;
    double p99_ns = 0.0;
  };
  std::array<PerClass, kRequestClasses> classes{};
  // Derived, normalised by (end - begin):
  double qps = 0.0;        ///< completions per virtual second
  double shed_rate = 0.0;  ///< shed / arrivals (0 with no arrivals)
  double occupancy = 0.0;  ///< batch_lanes / batches (0 with no batches)
};

/// The monitoring plane's ServiceProbe.  Attach with
/// WorkloadService::set_probe(&sampler); optionally wire an SloEngine
/// so every closed interval is evaluated and alerts land on the
/// Chrome-trace timeline as instant events.
class TimeSeriesSampler : public serving::ServiceProbe {
 public:
  /// `slo` may be nullptr (series only); the caller keeps ownership
  /// and the engine must outlive the sampler's callbacks.
  explicit TimeSeriesSampler(SamplerConfig config, SloEngine* slo = nullptr);

  [[nodiscard]] VirtualNs sample_period() const override {
    return config_.period_ns;
  }
  void on_run_start(const serving::ProbeState& state) override;
  void on_sample(VirtualNs boundary,
                 const serving::ProbeState& state) override;
  void on_run_end(VirtualNs end, const serving::ProbeState& state) override;

  [[nodiscard]] const SamplerConfig& config() const { return config_; }
  /// Ring contents, oldest first.
  [[nodiscard]] const std::deque<Sample>& samples() const { return samples_; }
  /// Every interval ever closed (>= samples().size()).
  [[nodiscard]] std::uint64_t total_intervals() const { return intervals_; }
  /// Samples evicted from the ring.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const SloEngine* slo() const { return slo_; }

 private:
  /// A registry counter a Sample reads, and its value at the previous
  /// boundary.
  struct CounterTap {
    std::string name;
    const telemetry::Counter* counter = nullptr;  ///< until registered
    std::uint64_t prev = 0;
  };
  /// A per-class latency histogram, its counts at the previous
  /// boundary, and the interval's delta (bounds, count, buckets).
  struct HistogramTap {
    std::string name;
    const telemetry::Histogram* histogram = nullptr;  ///< until registered
    std::uint64_t prev_count = 0;
    std::vector<std::uint64_t> prev_buckets;
    telemetry::HistogramSample delta;
  };

  /// The eight run-wide serving counters, then admitted, shed and
  /// completed per class.
  static constexpr std::size_t kCounterTaps = 8 + 3 * kRequestClasses;

  /// Look up the taps not resolved yet.
  void resolve_taps();
  /// Advance every tap to the current boundary: returns each counter
  /// tap's interval delta and fills each histogram tap's `delta`.
  /// Throws Error, advancing nothing, when a count went backwards (a
  /// registry reset between boundaries).
  std::array<std::uint64_t, kCounterTaps> advance_taps();
  void close_interval(VirtualNs begin, VirtualNs end,
                      const serving::ProbeState& state);

  SamplerConfig config_;
  SloEngine* slo_;
  bool running_ = false;
  VirtualNs interval_begin_ = 0;
  std::uint64_t intervals_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t slo_events_seen_ = 0;
  std::uint64_t trace_wall_base_ns_ = 0;
  std::array<CounterTap, kCounterTaps> counters_;
  std::array<HistogramTap, kRequestClasses> latency_;
  std::uint64_t prev_energy_aj_ = 0;
  std::uint64_t prev_pulses_ = 0;
  std::deque<Sample> samples_;
};

}  // namespace memcim::monitor

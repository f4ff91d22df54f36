#include "monitor/sampler.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.h"
#include "telemetry/attribution.h"
#include "telemetry/trace_export.h"

namespace memcim::monitor {

namespace {

/// Static-lifetime instant-event names, one per health transition.
const std::string* instant_name(HealthEventKind kind) {
  static const std::string kNames[] = {
      "monitor.burn_rate_alert",      "monitor.burn_rate_resolved",
      "monitor.stall",                "monitor.stall_resolved",
      "monitor.queue_high_water",     "monitor.queue_high_water_resolved",
      "monitor.shed_spike",           "monitor.shed_spike_resolved",
  };
  return &kNames[static_cast<std::size_t>(kind)];
}

/// Exact count of samples strictly above `target` in a delta
/// histogram: total minus the bucket-prefix whose bounds are <=
/// target.  With `target` chosen on a bucket bound the split is exact.
std::uint64_t count_over(const telemetry::HistogramSample& h, double target) {
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
    if (h.upper_bounds[i] > target) break;
    good += h.bucket_counts[i];
  }
  return h.count - good;
}

/// Interval-local quantile from the delta bucket counts alone: the
/// upper bound of the bucket holding the q-th sample.  Deliberately
/// NOT HistogramSample::percentile — that clamps to the live
/// histogram's min/max, which span the whole process (and any earlier
/// runs sharing the registry), so the clamp would leak run history
/// into the series.  Overflow-bucket samples saturate at the last
/// finite bound.
double bucket_quantile(const telemetry::HistogramSample& h, double q) {
  if (h.count == 0 || h.upper_bounds.empty()) return 0.0;
  const double fraction = std::min(std::max(q, 0.0), 100.0) / 100.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(h.count)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
    cumulative += h.bucket_counts[i];
    if (cumulative >= rank)
      return i < h.upper_bounds.size() ? h.upper_bounds[i]
                                       : h.upper_bounds.back();
  }
  return h.upper_bounds.back();
}

/// Counter tap indices: the run-wide counters, then per class c the
/// taps kClassTaps + 3c + {0, 1, 2} (admitted, shed, completed).
enum CounterTapIndex : std::size_t {
  kArrivals,
  kAdmitted,
  kShed,
  kCompleted,
  kBatches,
  kBatchesPartial,
  kBatchLanes,
  kFlits,
  kClassTaps,
};

constexpr const char* kRunWideCounters[kClassTaps] = {
    "serving.arrivals",    "serving.admitted",        "serving.shed",
    "serving.completed",   "serving.batches",         "serving.batches_partial",
    "serving.batch_lanes", "serving.flits",
};

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(SamplerConfig config, SloEngine* slo)
    : config_(config), slo_(slo) {
  MEMCIM_CHECK_MSG(config_.period_ns >= 1,
                   "sampler period must be >= 1 virtual ns");
  MEMCIM_CHECK_MSG(config_.capacity >= 1, "sampler ring needs capacity >= 1");
  for (std::size_t i = 0; i < kClassTaps; ++i)
    counters_[i].name = kRunWideCounters[i];
  for (std::size_t c = 0; c < kRequestClasses; ++c) {
    const std::string cls = to_string(static_cast<RequestClass>(c));
    counters_[kClassTaps + 3 * c].name = "serving.admitted." + cls;
    counters_[kClassTaps + 3 * c + 1].name = "serving.shed." + cls;
    counters_[kClassTaps + 3 * c + 2].name = "serving.completed." + cls;
    latency_[c].name = "serving.latency_ns." + cls;
  }
}

void TimeSeriesSampler::resolve_taps() {
  const telemetry::Registry& registry = telemetry::Registry::global();
  for (CounterTap& tap : counters_)
    if (tap.counter == nullptr) tap.counter = registry.find_counter(tap.name);
  for (HistogramTap& tap : latency_) {
    if (tap.histogram != nullptr) continue;
    tap.histogram = registry.find_histogram(tap.name);
    if (tap.histogram == nullptr) continue;
    // Registered since the last boundary: its counts so far are this
    // interval's.
    const std::size_t buckets = tap.histogram->upper_bounds().size() + 1;
    tap.prev_count = 0;
    tap.prev_buckets.assign(buckets, 0);
    tap.delta.upper_bounds = tap.histogram->upper_bounds();
    tap.delta.bucket_counts.assign(buckets, 0);
  }
}

std::array<std::uint64_t, TimeSeriesSampler::kCounterTaps>
TimeSeriesSampler::advance_taps() {
  resolve_taps();
  std::array<std::uint64_t, kCounterTaps> now{};
  for (std::size_t i = 0; i < kCounterTaps; ++i) {
    const CounterTap& tap = counters_[i];
    now[i] = tap.counter != nullptr ? tap.counter->value() : 0;
    MEMCIM_CHECK_MSG(now[i] >= tap.prev,
                     "time-series interval delta failed: counter '"
                         << tap.name
                         << "' went backwards (registry reset between "
                            "snapshots?)");
  }
  // Each histogram's interval delta, checked before any tap advances.
  for (HistogramTap& tap : latency_) {
    if (tap.histogram == nullptr) continue;
    const std::uint64_t count = tap.histogram->count();
    MEMCIM_CHECK_MSG(count >= tap.prev_count,
                     "time-series interval delta failed: histogram '"
                         << tap.name
                         << "' count went backwards (registry reset between "
                            "snapshots?)");
    tap.delta.count = count - tap.prev_count;
    for (std::size_t i = 0; i < tap.prev_buckets.size(); ++i) {
      const std::uint64_t bucket = tap.histogram->bucket_count(i);
      MEMCIM_CHECK_MSG(bucket >= tap.prev_buckets[i],
                       "time-series interval delta failed: histogram '"
                           << tap.name << "' bucket " << i
                           << " went backwards");
      tap.delta.bucket_counts[i] = bucket - tap.prev_buckets[i];
    }
  }

  std::array<std::uint64_t, kCounterTaps> deltas{};
  for (std::size_t i = 0; i < kCounterTaps; ++i) {
    deltas[i] = now[i] - counters_[i].prev;
    counters_[i].prev = now[i];
  }
  for (HistogramTap& tap : latency_) {
    if (tap.histogram == nullptr) continue;
    tap.prev_count += tap.delta.count;
    for (std::size_t i = 0; i < tap.prev_buckets.size(); ++i)
      tap.prev_buckets[i] += tap.delta.bucket_counts[i];
  }
  return deltas;
}

void TimeSeriesSampler::on_run_start(const serving::ProbeState& state) {
  (void)state;
  running_ = telemetry::enabled();
  if (!running_) return;
  interval_begin_ = 0;
  // Start every tap from the registry as it stands: a rerun sharing the
  // registry (reset in between or not) reports only its own intervals.
  for (CounterTap& tap : counters_) {
    tap.counter = nullptr;
    tap.prev = 0;
  }
  for (HistogramTap& tap : latency_) tap.histogram = nullptr;
  (void)advance_taps();
  const telemetry::AttrDelta totals =
      telemetry::AttributionBook::global().totals();
  prev_energy_aj_ = totals.energy_aj;
  prev_pulses_ = totals.pulses;
  // Anchor for stamping virtual-time health events onto the wall-time
  // Chrome-trace axis (same scheme as the mesh NoC's virtual spans).
  trace_wall_base_ns_ = telemetry::now_ns();
  slo_events_seen_ = slo_ != nullptr ? slo_->events().size() : 0;
}

void TimeSeriesSampler::on_sample(VirtualNs boundary,
                                  const serving::ProbeState& state) {
  if (!running_) return;
  close_interval(interval_begin_, boundary, state);
  interval_begin_ = boundary;
}

void TimeSeriesSampler::on_run_end(VirtualNs end,
                                   const serving::ProbeState& state) {
  if (!running_) return;
  // Close the final partial interval (zero-length when the run ended
  // exactly on a boundary).
  if (end > interval_begin_) {
    close_interval(interval_begin_, end, state);
    interval_begin_ = end;
  }
  running_ = false;
}

void TimeSeriesSampler::close_interval(VirtualNs begin, VirtualNs end,
                                       const serving::ProbeState& state) {
  const std::array<std::uint64_t, kCounterTaps> d = advance_taps();

  Sample s;
  s.interval = intervals_++;
  s.begin = begin;
  s.end = end;
  s.arrivals = d[kArrivals];
  s.admitted = d[kAdmitted];
  s.shed = d[kShed];
  s.completed = d[kCompleted];
  s.batches = d[kBatches];
  s.partial_batches = d[kBatchesPartial];
  s.batch_lanes = d[kBatchLanes];
  s.flits = d[kFlits];
  s.queue_depth = state.queue_depth;

  const telemetry::AttrDelta totals =
      telemetry::AttributionBook::global().totals();
  s.energy_aj = totals.energy_aj - prev_energy_aj_;
  s.pulses = totals.pulses - prev_pulses_;
  prev_energy_aj_ = totals.energy_aj;
  prev_pulses_ = totals.pulses;

  SloEngine::IntervalInput input;
  input.begin = begin;
  input.end = end;
  input.interval = s.interval;
  input.arrivals = s.arrivals;
  input.shed = s.shed;
  input.completed = s.completed;
  input.queue_depth = state.queue_depth;

  for (std::size_t c = 0; c < kRequestClasses; ++c) {
    Sample::PerClass& pc = s.classes[c];
    pc.admitted = d[kClassTaps + 3 * c];
    pc.shed = d[kClassTaps + 3 * c + 1];
    pc.completed = d[kClassTaps + 3 * c + 2];
    input.class_completed[c] = pc.completed;
    const HistogramTap& tap = latency_[c];
    if (tap.histogram != nullptr && tap.delta.count > 0) {
      const telemetry::HistogramSample& h = tap.delta;
      pc.p50_ns = bucket_quantile(h, 50.0);
      pc.p95_ns = bucket_quantile(h, 95.0);
      pc.p99_ns = bucket_quantile(h, 99.0);
      if (slo_ != nullptr) {
        for (const SloObjective& o : slo_->config().objectives) {
          if (o.kind != SloKind::kLatency ||
              static_cast<std::size_t>(o.cls) != c)
            continue;
          input.class_bad_latency[c] =
              count_over(h, static_cast<double>(o.latency_target_ns));
          break;
        }
      }
    }
  }

  const double span_s = static_cast<double>(end - begin) / 1e9;
  s.qps = span_s > 0.0 ? static_cast<double>(s.completed) / span_s : 0.0;
  s.shed_rate = s.arrivals == 0 ? 0.0
                                : static_cast<double>(s.shed) /
                                      static_cast<double>(s.arrivals);
  s.occupancy = s.batches == 0 ? 0.0
                               : static_cast<double>(s.batch_lanes) /
                                     static_cast<double>(s.batches);

  samples_.push_back(std::move(s));
  static telemetry::Counter& samples =
      telemetry::Registry::global().counter("monitor.samples");
  samples.add(1);
  if (samples_.size() > config_.capacity) {
    samples_.pop_front();
    ++dropped_;
    static telemetry::Counter& dropped =
        telemetry::Registry::global().counter("monitor.samples_dropped");
    dropped.add(1);
  }

  if (slo_ != nullptr) {
    slo_->observe(input);
    // Stamp new health transitions onto the trace timeline: virtual
    // event instants anchored at the run's wall-clock start.
    const std::vector<HealthEvent>& events = slo_->events();
    for (; slo_events_seen_ < events.size(); ++slo_events_seen_) {
      const HealthEvent& e = events[slo_events_seen_];
      telemetry::emit_instant_event(instant_name(e.kind),
                                    trace_wall_base_ns_ + e.at, 0,
                                    telemetry::kNoTile);
    }
  }
}

}  // namespace memcim::monitor

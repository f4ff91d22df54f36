#include "monitor/slo.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace memcim::monitor {

std::string_view to_string(SloKind kind) {
  switch (kind) {
    case SloKind::kAvailability:
      return "availability";
    case SloKind::kLatency:
      return "latency";
  }
  return "?";
}

std::string_view to_string(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kBurnRateAlert:
      return "burn_rate_alert";
    case HealthEventKind::kBurnRateResolved:
      return "burn_rate_resolved";
    case HealthEventKind::kStall:
      return "stall";
    case HealthEventKind::kStallResolved:
      return "stall_resolved";
    case HealthEventKind::kQueueHighWater:
      return "queue_high_water";
    case HealthEventKind::kQueueHighWaterResolved:
      return "queue_high_water_resolved";
    case HealthEventKind::kShedSpike:
      return "shed_spike";
    case HealthEventKind::kShedSpikeResolved:
      return "shed_spike_resolved";
  }
  return "?";
}

bool is_alert(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kBurnRateAlert:
    case HealthEventKind::kStall:
    case HealthEventKind::kQueueHighWater:
    case HealthEventKind::kShedSpike:
      return true;
    default:
      return false;
  }
}

SloConfig default_serving_slos(std::size_t queue_high_water) {
  SloConfig cfg;
  SloObjective availability;
  availability.name = "availability";
  availability.kind = SloKind::kAvailability;
  availability.target_ratio = 0.999;
  cfg.objectives.push_back(availability);
  for (std::size_t c = 0; c < kRequestClasses; ++c) {
    SloObjective latency;
    latency.name = std::string("latency.") +
                   to_string(static_cast<RequestClass>(c));
    latency.kind = SloKind::kLatency;
    latency.cls = static_cast<RequestClass>(c);
    latency.target_ratio = 0.999;
    latency.latency_target_ns = 65536;  // a serving.latency_ns bucket bound
    cfg.objectives.push_back(latency);
  }
  cfg.watchdog.stall_intervals = 5;
  cfg.watchdog.queue_high_water = queue_high_water;
  cfg.watchdog.shed_spike_rate = 0.5;
  cfg.watchdog.shed_spike_min_arrivals = 100;
  return cfg;
}

namespace {

/// Burn over a window's summed (bad, total) counts: summed counts, not
/// averaged per-interval fractions, so quiet intervals don't dilute a
/// burst unfairly.
double burn(std::uint64_t bad, std::uint64_t total, double target) {
  if (total == 0) return 0.0;
  const double budget = 1.0 - target;
  if (budget <= 0.0) return bad == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

/// Burn over the last `span` (bad, total) interval pairs of `window`.
double window_burn(
    const std::deque<std::pair<std::uint64_t, std::uint64_t>>& window,
    std::size_t span, double target) {
  std::uint64_t bad = 0;
  std::uint64_t total = 0;
  const std::size_t n = std::min(span, window.size());
  for (std::size_t i = window.size() - n; i < window.size(); ++i) {
    bad += window[i].first;
    total += window[i].second;
  }
  return burn(bad, total, target);
}

}  // namespace

SloEngine::SloEngine(SloConfig config) : config_(std::move(config)) {
  for (const SloObjective& o : config_.objectives) {
    MEMCIM_CHECK_MSG(o.target_ratio > 0.0 && o.target_ratio < 1.0,
                     "SLO target_ratio must be in (0, 1)");
    MEMCIM_CHECK_MSG(o.fast_window >= 1 && o.slow_window >= o.fast_window,
                     "SLO windows need 1 <= fast <= slow");
    MEMCIM_CHECK_MSG(o.burn_threshold > 0.0, "burn threshold must be > 0");
  }
  objectives_.resize(config_.objectives.size());
}

void SloEngine::emit(HealthEventKind kind, const std::string& rule,
                     const IntervalInput& in, double value, double threshold) {
  HealthEvent e;
  e.kind = kind;
  e.rule = rule;
  e.at = in.end;
  e.interval = in.interval;
  e.value = value;
  e.threshold = threshold;
  events_.push_back(std::move(e));
  if (is_alert(kind)) ++alerts_fired_;
}

void SloEngine::observe(const IntervalInput& in) {
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& o = config_.objectives[i];
    ObjectiveState& st = objectives_[i];
    std::uint64_t bad = 0;
    std::uint64_t total = 0;
    if (o.kind == SloKind::kAvailability) {
      bad = in.shed;
      total = in.arrivals;
    } else {
      const auto c = static_cast<std::size_t>(o.cls);
      bad = in.class_bad_latency[c];
      total = in.class_completed[c];
    }
    st.window.push_back({bad, total});
    st.bad += bad;
    st.total += total;
    while (st.window.size() > o.slow_window) {
      st.bad -= st.window.front().first;
      st.total -= st.window.front().second;
      st.window.pop_front();
    }
    const double fast = window_burn(st.window, o.fast_window, o.target_ratio);
    const double slow = burn(st.bad, st.total, o.target_ratio);
    const bool firing = fast > o.burn_threshold && slow > o.burn_threshold;
    if (firing && !st.active)
      emit(HealthEventKind::kBurnRateAlert, o.name, in, std::min(fast, slow),
           o.burn_threshold);
    else if (!firing && st.active)
      emit(HealthEventKind::kBurnRateResolved, o.name, in,
           std::min(fast, slow), o.burn_threshold);
    st.active = firing;
  }

  const WatchdogConfig& wd = config_.watchdog;
  static const std::string kStallRule = "watchdog.stall";
  static const std::string kQueueRule = "watchdog.queue_high_water";
  static const std::string kShedRule = "watchdog.shed_spike";

  if (wd.stall_intervals > 0) {
    std::size_t queued = 0;
    for (const std::size_t d : in.queue_depth) queued += d;
    if (queued > 0 && in.completed == 0)
      ++stall_run_;
    else
      stall_run_ = 0;
    const bool firing = stall_run_ >= wd.stall_intervals;
    if (firing && !stall_active_)
      emit(HealthEventKind::kStall, kStallRule, in,
           static_cast<double>(stall_run_),
           static_cast<double>(wd.stall_intervals));
    else if (!firing && stall_active_)
      emit(HealthEventKind::kStallResolved, kStallRule, in,
           static_cast<double>(stall_run_),
           static_cast<double>(wd.stall_intervals));
    stall_active_ = firing;
  }

  if (wd.queue_high_water > 0) {
    std::size_t deepest = 0;
    for (const std::size_t d : in.queue_depth) deepest = std::max(deepest, d);
    const bool firing = deepest >= wd.queue_high_water;
    if (firing && !queue_active_)
      emit(HealthEventKind::kQueueHighWater, kQueueRule, in,
           static_cast<double>(deepest),
           static_cast<double>(wd.queue_high_water));
    else if (!firing && queue_active_)
      emit(HealthEventKind::kQueueHighWaterResolved, kQueueRule, in,
           static_cast<double>(deepest),
           static_cast<double>(wd.queue_high_water));
    queue_active_ = firing;
  }

  if (wd.shed_spike_rate > 0.0) {
    const double rate =
        in.arrivals == 0 ? 0.0
                         : static_cast<double>(in.shed) /
                               static_cast<double>(in.arrivals);
    const bool firing =
        in.arrivals >= wd.shed_spike_min_arrivals && rate > wd.shed_spike_rate;
    if (firing && !shed_active_)
      emit(HealthEventKind::kShedSpike, kShedRule, in, rate,
           wd.shed_spike_rate);
    else if (!firing && shed_active_)
      emit(HealthEventKind::kShedSpikeResolved, kShedRule, in, rate,
           wd.shed_spike_rate);
    shed_active_ = firing;
  }
}

bool SloEngine::any_active() const {
  for (const ObjectiveState& st : objectives_)
    if (st.active) return true;
  return stall_active_ || queue_active_ || shed_active_;
}

}  // namespace memcim::monitor

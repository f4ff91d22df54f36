#include "telemetry/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "telemetry/trace_export.h"

namespace memcim::telemetry {

namespace detail {

namespace {
bool initial_enabled() {
#if MEMCIM_TELEMETRY_COMPILED
  if (const char* env = std::getenv("MEMCIM_TELEMETRY"))
    return !(env[0] == '0' && env[1] == '\0');
  return true;
#else
  return false;
#endif
}
}  // namespace

std::atomic<bool> g_enabled{initial_enabled()};
std::atomic<bool> g_tracing{false};

std::size_t assign_shard() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
}

}  // namespace detail

void set_enabled(bool on) {
#if MEMCIM_TELEMETRY_COMPILED
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t epoch_ns() {
  static const std::uint64_t epoch = steady_ns();
  return epoch;
}

}  // namespace

std::uint64_t now_ns() { return steady_ns() - epoch_ns(); }

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

namespace {

thread_local TraceContext t_trace_context;
thread_local std::uint32_t t_current_tile = kNoTile;

std::uint64_t next_unique_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceContext current_trace_context() { return t_trace_context; }

TraceContext new_root_context() {
  if (!enabled()) return {};
  return {next_unique_id(), 0};
}

std::uint64_t new_span_id() { return next_unique_id(); }

TraceContextScope::TraceContextScope(TraceContext ctx)
    : prev_(t_trace_context) {
  t_trace_context = ctx;
}

TraceContextScope::~TraceContextScope() { t_trace_context = prev_; }

TileScope::TileScope(std::uint32_t tile) : prev_(t_current_tile) {
  t_current_tile = tile;
}

TileScope::~TileScope() { t_current_tile = prev_; }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> upper_bounds)
    : name_(std::move(name)),
      bounds_(std::move(upper_bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::record(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  return counts;
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

double HistogramSample::percentile(double q) const {
  if (count == 0) return 0.0;
  const double fraction = std::min(std::max(q, 0.0), 100.0) / 100.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(count)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    cumulative += bucket_counts[i];
    if (cumulative >= rank) {
      if (i >= upper_bounds.size()) return max;  // overflow bucket
      return std::min(upper_bounds[i], max);
    }
  }
  return max;  // unreachable when bucket_counts sums to count
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterSample& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

const HistogramSample* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramSample& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  // Heap-allocated and never destroyed: pool workers and test threads
  // can book counters while static destructors run at exit.
  static Registry* const instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name),
                                                  std::move(upper_bounds)))
             .first;
  return *it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.count = h->count();
    s.min = h->min();
    s.max = h->max();
    s.upper_bounds = h->upper_bounds();
    s.bucket_counts = h->bucket_counts();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

// ---------------------------------------------------------------------------
// Trace collection
// ---------------------------------------------------------------------------

namespace {

/// Per-thread event buffer.  Owned jointly by the writing thread
/// (thread_local shared_ptr) and the global collector, so events
/// survive thread exit until the next session.
struct ThreadTraceBuffer {
  std::mutex mutex;  // appends are single-writer; export may race
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::atomic<std::uint32_t> next_tid{0};
};

TraceState& trace_state() {
  // Never destroyed, like Registry::global(): pool workers and test
  // threads can open spans while static destructors run at exit.
  static TraceState* const state = new TraceState();
  return *state;
}

ThreadTraceBuffer& thread_buffer() {
  static thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto b = std::make_shared<ThreadTraceBuffer>();
    TraceState& state = trace_state();
    b->tid = state.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state.mutex);
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local std::uint32_t t_span_depth = 0;

}  // namespace

void start_tracing() {
  TraceState& state = trace_state();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto& b : state.buffers) {
      std::lock_guard<std::mutex> bl(b->mutex);
      b->events.clear();
    }
  }
  detail::g_tracing.store(true, std::memory_order_relaxed);
}

void stop_tracing() {
  detail::g_tracing.store(false, std::memory_order_relaxed);
}

std::vector<TraceEvent> collected_trace() {
  TraceState& state = trace_state();
  std::vector<TraceEvent> merged;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto& b : state.buffers) {
      std::lock_guard<std::mutex> bl(b->mutex);
      merged.insert(merged.end(), b->events.begin(), b->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.depth < b.depth;
            });
  return merged;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

SpanSite::SpanSite(std::string name)
    : name_(std::move(name)),
      calls_(Registry::global().counter(name_ + ".calls")),
      total_ns_(Registry::global().counter(name_ + ".ns")) {}

void Span::open(SpanSite& site) {
  site_ = &site;
  depth_ = t_span_depth++;
  parent_ = t_trace_context;
  span_id_ = next_unique_id();
  // Install this span as the context for its extent: child spans, pool
  // chunks and NoC packets dispatched from inside parent under it.
  t_trace_context = {parent_.trace_id, span_id_};
  start_ns_ = now_ns();
}

void Span::close() {
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - start_ns_;
  if (t_span_depth > 0) --t_span_depth;
  t_trace_context = parent_;
  site_->calls_.add(1);
  site_->total_ns_.add(dur);
  if (tracing()) {
    ThreadTraceBuffer& buffer = thread_buffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back({&site_->name_, start_ns_, dur, buffer.tid, depth_,
                             parent_.trace_id, span_id_, parent_.span_id,
                             t_current_tile});
  }
  site_ = nullptr;
}

void emit_trace_event(const std::string* name, std::uint64_t ts_ns,
                      std::uint64_t dur_ns, std::uint64_t trace_id,
                      std::uint64_t span_id, std::uint64_t parent_span,
                      std::uint32_t tile) {
  if (!enabled() || !tracing()) return;
  ThreadTraceBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back({name, ts_ns, dur_ns, buffer.tid, 0, trace_id,
                           span_id, parent_span, tile});
}

void emit_instant_event(const std::string* name, std::uint64_t ts_ns,
                        std::uint64_t trace_id, std::uint32_t tile) {
  if (!enabled() || !tracing()) return;
  ThreadTraceBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      {name, ts_ns, 0, buffer.tid, 0, trace_id, 0, 0, tile, 'i'});
}

}  // namespace memcim::telemetry

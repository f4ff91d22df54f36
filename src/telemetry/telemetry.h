// Cross-layer telemetry: named counters/gauges/histograms in a global
// Registry, plus RAII Span timers that feed both per-span aggregates
// and an exportable Chrome-trace buffer (see trace_export.h).
//
// Design constraints:
//
//  * Low overhead — every instrumented hot path costs exactly one
//    predictable branch when telemetry is disabled (the default can be
//    flipped with MEMCIM_TELEMETRY=0, or at runtime with set_enabled()).
//  * Thread-safe and deterministic — counters are sharded per thread
//    and merged on snapshot; a counter total is an exact sum of u64
//    increments, so every tally is bitwise identical for any
//    MEMCIM_THREADS setting (only wall-time aggregates, *.ns, and the
//    thread pool's own scheduling counters depend on the schedule).
//  * No layering debt — this library sits below common/ and depends on
//    nothing but the standard library, so every layer (device, logic,
//    crossbar, arch, workloads, fault) can instrument freely.
//
// Metric names are dot-separated paths ("crossbar.solve.sweeps"); the
// full catalogue lives in docs/TELEMETRY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace memcim::telemetry {

namespace detail {
/// Runtime switches. Zero-initialised statically, then set from the
/// MEMCIM_TELEMETRY environment variable before main() — instrumented
/// code only reads them at runtime, so there is no init-order hazard.
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_tracing;

inline constexpr std::size_t kCounterShards = 16;

/// Dense per-thread shard slot (assigned once per thread, round-robin).
[[nodiscard]] std::size_t assign_shard();
[[nodiscard]] inline std::size_t shard_index() {
  static thread_local const std::size_t slot = assign_shard();
  return slot;
}
}  // namespace detail

/// The one branch every instrumented hot path pays when telemetry is
/// off.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip collection at runtime (tests and the overhead bench use this).
void set_enabled(bool on);

/// True while a trace session started by start_tracing() is active
/// (see trace_export.h); spans only append trace events when both
/// enabled() and tracing() hold.
[[nodiscard]] inline bool tracing() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds since the process telemetry epoch.
[[nodiscard]] std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// The causal coordinates of the work currently executing on this
/// thread: which request/run it belongs to (`trace_id`) and which span
/// is its direct parent (`span_id`).  Contexts propagate three ways:
///   * implicitly — every Span adopts the current context as parent and
///     installs itself for its dynamic extent;
///   * across the thread pool — parallel_for captures the submitting
///     thread's context and workers adopt it per chunk, so worker spans
///     parent under the dispatching span instead of floating free;
///   * across the NoC — packets carry (trace_id, parent_span) and the
///     mesh emits a child span per delivery (see noc/message.h).
/// trace_id 0 means "not part of any trace"; span ids are process-
/// unique and never 0 for a live span.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// The calling thread's current context ({0, 0} outside any span).
[[nodiscard]] TraceContext current_trace_context();

/// A fresh root context carrying a process-unique trace id (span_id 0:
/// the next span opened under it becomes the trace's root span).
/// Returns {0, 0} while telemetry is disabled.
[[nodiscard]] TraceContext new_root_context();

/// Allocate a process-unique nonzero span id (the mesh uses this for
/// packet-delivery spans it emits without a Span object).
[[nodiscard]] std::uint64_t new_span_id();

/// Adopt `ctx` as the calling thread's context for the scope's
/// lifetime; restores the previous context on destruction.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// "Not executing on behalf of any tile" marker for span/trace events.
inline constexpr std::uint32_t kNoTile = 0xFFFFFFFFu;

/// Tag the calling thread as executing tile `tile`'s work for the
/// scope's lifetime (sharded workloads wrap per-shard compute in one);
/// trace events carry the tag so Perfetto can group spans by tile.
class TileScope {
 public:
  explicit TileScope(std::uint32_t tile);
  ~TileScope();
  TileScope(const TileScope&) = delete;
  TileScope& operator=(const TileScope&) = delete;

 private:
  std::uint32_t prev_;
};

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotone u64 counter, sharded per thread to keep concurrent
/// increments off a shared cache line.  The merged value is an exact
/// integer sum: bitwise identical at any thread count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::array<Shard, detail::kCounterShards> shards_;
};

/// Last-write-wins double value.  Gauges are meant to be set from one
/// thread (per-array energy, configuration echoes); they carry no
/// cross-thread determinism guarantee.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bound histogram: bucket i counts samples v <= upper_bounds[i]
/// (first matching bound), with one overflow bucket past the last
/// bound.  Bucket counts and the sample count are exact u64 tallies;
/// min/max are order-independent, so the whole sample is thread-count
/// deterministic.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// Bucket i's count (i <= upper_bounds().size(), the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// +inf / -inf respectively while the histogram is empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  void reset();

 private:
  std::string name_;
  std::vector<double> bounds_;  // strictly ascending
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// `count` bounds in geometric progression: start, start·factor, ...
[[nodiscard]] std::vector<double> exponential_bounds(double start,
                                                     double factor,
                                                     std::size_t count);

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  // upper_bounds.size() + 1

  /// Exact-bucket quantile: the upper bound of the bucket holding the
  /// ceil(q/100 · count)-th sample (q in [0, 100]), clamped to the
  /// observed max.  Samples past the last bound resolve to the max; an
  /// empty histogram returns 0.  Because bucket tallies are exact u64
  /// counts, the answer is bitwise deterministic at any thread count.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a counter by name; 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Histogram by name; nullptr when absent.
  [[nodiscard]] const HistogramSample* histogram(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Process-global name → metric registry.  Lookups take a mutex, so
/// instrumentation sites resolve their metric once (function-local
/// static reference) and then touch only the lock-free primitive.
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// First call fixes the bounds; later calls with the same name ignore
  /// `upper_bounds` and return the existing histogram.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> upper_bounds);
  /// The metric registered under `name`, or nullptr; registers nothing.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every metric value (registrations survive — cached references
  /// at instrumentation sites stay valid).
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One static instrumentation site: resolves the per-span aggregate
/// counters ("<name>.calls", "<name>.ns") once.  Declare as a
/// function-local static next to the Span that uses it.
class SpanSite {
 public:
  explicit SpanSite(std::string name);
  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Span;
  std::string name_;
  Counter& calls_;
  Counter& total_ns_;
};

/// RAII wall-time span.  Always feeds the site's aggregate counters;
/// additionally appends a Chrome-trace event to the calling thread's
/// buffer while a trace session is active.  Spans nest (per-thread
/// depth is tracked), and one branch is the whole cost when telemetry
/// is disabled.
///
/// Each open span adopts the thread's current TraceContext as its
/// parent, allocates a process-unique span id, and installs itself as
/// the context for its dynamic extent — so nested spans (and anything
/// dispatched from inside, including pool chunks and NoC packets) form
/// a real parent/child tree instead of a flat per-thread stack.
class Span {
 public:
  explicit Span(SpanSite& site) {
    if (!enabled()) return;
    open(site);
  }
  ~Span() {
    if (site_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(SpanSite& site);
  void close();

  SpanSite* site_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t span_id_ = 0;
  TraceContext parent_;  // context restored on close
};

}  // namespace memcim::telemetry

// Shared pieces of the memcim benchmark program: run options, seeded
// input generation, the result envelope, digests and the in-memory
// span log of the traced mode.
//
// Two clocks appear in every result and each metric names its own:
//   host — steady_clock time of the simulator process (noisy);
//   virt — the modelled fabric's virtual clock and cost books (exact,
//          bitwise reproducible for a given seed at any thread count).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced mode writes its span log ("" = nowhere).
  std::string span_file;
};

// -- seeded inputs --------------------------------------------------------------

/// splitmix64: the benchmark's own input generator, so the inputs depend
/// only on the seed and this file, never on a library RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n), n >= 1 (rejection-free multiply-shift).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  std::vector<bool> bits(std::size_t n) {
    std::vector<bool> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = (next() & 1u) != 0;
    return out;
  }

 private:
  std::uint64_t state_;
};

/// LSB-first bit vector → integer (words here are at most 64 bits).
inline std::uint64_t pack_word(const std::vector<bool>& bits) {
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i)
    if (bits[i]) w |= std::uint64_t{1} << i;
  return w;
}

// -- digests --------------------------------------------------------------------

/// Order-sensitive 64-bit digest of virtual outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0xFF51AFD7ED558CCDull;
    h_ ^= h_ >> 33;
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// -- statistics -----------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]): always an actual sample, so
/// virtual percentiles stay exact.
template <class T>
T nearest_rank(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

using Clock = std::chrono::steady_clock;

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

inline std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Time one call in host nanoseconds.
template <class F>
std::uint64_t time_ns(F&& f) {
  const auto t0 = Clock::now();
  f();
  return elapsed_ns(t0, Clock::now());
}

// -- result envelope ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed check; any failure makes the run incorrect.
  void fail(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Host-clock figures of the untraced repetitions.
struct HostSamples {
  std::vector<double> setup_s;
  std::vector<double> items_per_s;
};

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mib();

/// 16 hex digits.
std::string hex64(std::uint64_t v);

/// The untraced measurement loop: one warm-up repetition (the reference
/// digest), timed repetitions until `seconds` have passed (at least
/// three), then one repetition on a single-thread pool.  `rep(timed)`
/// runs set-up, the workload and its checks and returns the run's
/// virtual digest, which must never change.
template <class Rep>
void repeat_for(double seconds, Outcome& out, Rep&& rep) {
  const std::uint64_t reference = rep(false);
  const auto deadline = deadline_after(seconds);
  for (std::size_t timed = 0; timed < 3 || Clock::now() < deadline; ++timed)
    out.expect(rep(true) == reference,
               "virtual digest identical across repetitions");
  const std::size_t threads = memcim::parallel_threads();
  if (threads > 1) {
    memcim::set_parallel_threads(1);
    const std::uint64_t single = rep(false);
    memcim::set_parallel_threads(threads);
    out.expect(single == reference, "virtual digest identical at 1 thread and at " +
                                        std::to_string(threads));
  }
}

/// Append the host end-to-end metrics (host_items_per_s, setup_s,
/// peak_rss_mib) in the catalogue's order.
void add_host_metrics(Outcome& out, const HostSamples& host);

// -- traced mode: span log and layer table ------------------------------------

/// One timed call into a module's public function.  Replayed layers
/// run after the workload, so `pass` names the timeline a span lives on
/// (run, dispatch, compute, noc); `parent` names the layer the call
/// stands under and `seq` the batch (or call) it served.
struct SpanRecord {
  const char* name;
  const char* parent;
  const char* pass;
  std::uint64_t seq;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  [[nodiscard]] std::uint64_t now() const {
    return elapsed_ns(epoch_, Clock::now());
  }
  void add(const char* name, const char* parent, const char* pass,
           std::uint64_t seq, std::uint64_t start, std::uint64_t end) {
    if (recording_) spans_.push_back({name, parent, pass, seq, start, end});
  }
  /// Later rounds of a traced run time the same calls without logging.
  void set_recording(bool on) { recording_ = on; }
  /// Write the spans as JSON (one object per span); false on I/O error.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  Clock::time_point epoch_;
  bool recording_ = true;
  std::vector<SpanRecord> spans_;
};

/// Traced rounds until `seconds` have passed (at least two), stopping
/// at the first failed check.  Host noise between separately replayed
/// passes is large, so each host total is later taken from its best
/// round; spans are logged for the first round only.
template <class Round, class F>
std::vector<Round> rounds_for(double seconds, Outcome& out, SpanLog& log,
                              F&& round) {
  const auto deadline = deadline_after(seconds);
  std::vector<Round> rounds;
  do {
    rounds.push_back(round());
    log.set_recording(false);
  } while (out.correct && (rounds.size() < 2 || Clock::now() < deadline));
  for (const Round& r : rounds)
    out.expect(r.books.digest == rounds.front().books.digest,
               "virtual digest identical across traced rounds");
  return rounds;
}

/// Smallest per-round value of a host total.
template <class Round, class F>
double best(const std::vector<Round>& rounds, F&& field) {
  double v = static_cast<double>(field(rounds.front()));
  for (const Round& r : rounds) v = std::min(v, static_cast<double>(field(r)));
  return v;
}

/// One row of the printed per-layer table.
struct LayerRow {
  std::string layer;   ///< indented by depth
  std::uint64_t calls;
  double total_ns;     ///< host ns inside the layer's public calls
  double self_ns;      ///< total minus the children's contribution
};

/// Print the layer table with each row's share of `base_ns`.
void print_layer_table(const std::vector<LayerRow>& rows, double base_ns,
                       const std::string& base_name);

/// Per-layer values of one traced run, by metric name.
using LayerValues = std::vector<std::pair<std::string, double>>;

/// Append every per-layer metric of the catalogue, in catalogue order;
/// a layer a workload bypasses reads 0.  Fails `out` on a name that is
/// not in the catalogue.
void add_layer_metrics(Outcome& out, const LayerValues& values);

/// Workload entry points (serve.cpp / batch.cpp).
Outcome run_serve(const RunOptions& options);
Outcome trace_serve(const RunOptions& options);
Outcome run_batch(const RunOptions& options);
Outcome trace_batch(const RunOptions& options);
[[nodiscard]] bool is_serve_workload(const std::string& name);

}  // namespace perfbench

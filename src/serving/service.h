// The batched request-serving front end: a long-running workload
// service over the tile fabric.
//
//   arrivals ──▶ per-class AdmissionQueues (bounded, typed shed)
//            ──▶ Coalescer (64-lane windows, partial-window timeout)
//            ──▶ BatchDispatcher (NoC co-simulated fabric execution)
//            ──▶ Responses + per-request latency telemetry
//
// The whole service runs on one deterministic virtual clock
// (VirtualNs), advanced by a single-threaded event loop with fixed
// tie-breaks: at each instant, arrivals admit first, then at most one
// window dispatches (the fabric is one shared resource; a new window
// launches only when the previous batch's last completion has ejected).
// A window's tiles also run inline on this thread (see dispatcher.h):
// their work is a few µs per window, about what a thread-pool fork/join
// costs, so serving never touches the pool.  Responses, shed records,
// stats and every serving.* metric are bitwise identical at any
// MEMCIM_THREADS setting, and the per-request serving.* counters are
// exact at every probe boundary and when run() returns.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "serving/coalescer.h"
#include "serving/dispatcher.h"
#include "serving/queue.h"
#include "serving/request.h"

namespace memcim::serving {

struct ServingConfig {
  /// Per-class admission queue bound (the backpressure knob).
  std::size_t queue_capacity = 256;
  CoalescerPolicy coalescer{};
  ServingWorkloadConfig workload{};
};

/// Per-class admission/completion books of one run.
struct ClassStats {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
};

struct ServiceRunStats {
  std::array<ClassStats, kRequestClasses> per_class{};
  std::uint64_t batches = 0;
  std::uint64_t partial_batches = 0;
  std::uint64_t total_lanes = 0;  ///< Σ batch occupancy
  std::uint64_t flits = 0;
  /// Virtual instant the last batch completed (0 with no completions).
  VirtualNs makespan = 0;
  /// Σ per-batch service time — fabric busy time on the virtual clock.
  VirtualNs busy_ns = 0;
  Energy compute_energy{0.0};
  Energy noc_energy{0.0};

  [[nodiscard]] std::uint64_t arrivals() const;
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t shed() const;
  /// Mean lanes per dispatched batch (0 with no batches).
  [[nodiscard]] double mean_occupancy() const;
  /// Completed requests per virtual second (0 with zero makespan).
  [[nodiscard]] double sustained_qps() const;
  /// Shed arrivals / total arrivals (0 with no arrivals).
  [[nodiscard]] double shed_rate() const;
};

/// One finished run: responses in completion order (batch sequence,
/// then lane order within the batch), shed records in arrival order.
struct ServiceRunResult {
  std::vector<Response> responses;
  std::vector<ShedRecord> shed;
  ServiceRunStats stats;
};

/// Instantaneous service state handed to a probe at each sample
/// boundary.  Everything here is derived from the virtual clock and
/// the single-threaded event loop, so it is bitwise deterministic at
/// any MEMCIM_THREADS setting.
struct ProbeState {
  std::array<std::size_t, kRequestClasses> queue_depth{};
};

/// Observer driven by the serving event loop's virtual clock — the
/// monitoring plane's attachment point (see src/monitor/sampler.h).
///
/// Boundaries fire at multiples of sample_period(): on_sample(b, ...)
/// covers the half-open interval [b - period, b) — telemetry recorded
/// at exactly instant b belongs to the *next* interval.  Completion
/// metrics are booked at the dispatch instant (the completion instant
/// is known deterministically then), so a batch dispatched in an
/// interval counts toward that interval even when its completion lands
/// later.  After the trace drains, boundaries fire up to the makespan
/// and on_run_end() closes the final (possibly short) interval.
class ServiceProbe {
 public:
  virtual ~ServiceProbe() = default;
  /// Sampling period in virtual ns; must be >= 1.
  [[nodiscard]] virtual VirtualNs sample_period() const = 0;
  /// run() is entering its event loop at virtual instant 0 — the
  /// sampler captures its baseline telemetry snapshot here so fabric
  /// setup costs don't leak into the first interval.
  virtual void on_run_start(const ProbeState& state) { (void)state; }
  /// One interval boundary crossed: `boundary` is the interval's
  /// exclusive end instant.
  virtual void on_sample(VirtualNs boundary, const ProbeState& state) = 0;
  /// The run drained at `end` (== stats.makespan); closes the last
  /// partial interval.
  virtual void on_run_end(VirtualNs end, const ProbeState& state) = 0;
};

class WorkloadService {
 public:
  /// `kmer_database` / `cam_rows` shapes as in BatchDispatcher.
  WorkloadService(TileFabric& fabric, const ServingConfig& config,
                  const std::vector<std::vector<bool>>& kmer_database,
                  const std::vector<std::vector<bool>>& cam_rows);

  [[nodiscard]] const ServingConfig& config() const { return config_; }
  [[nodiscard]] const BatchDispatcher& dispatcher() const {
    return dispatcher_;
  }

  /// Attach (or detach with nullptr) a sample-boundary observer; the
  /// caller keeps ownership and the probe must outlive run().
  void set_probe(ServiceProbe* probe) { probe_ = probe; }

  /// Replay an open-loop arrival trace (nondecreasing `arrival`
  /// stamps) through the service to completion.  Admission stamps a
  /// fresh root trace context on every admitted request.
  [[nodiscard]] ServiceRunResult run(const std::vector<Request>& trace);

 private:
  /// NoC cycles → whole virtual nanoseconds (cycle period rounded to
  /// >= 1 ns keeps the clock integral, hence bitwise deterministic).
  [[nodiscard]] VirtualNs cycles_to_ns(NocCycle cycles) const;

  /// Close and execute one window of `cls` at `now`; returns the
  /// batch's completion instant (the fabric's next-free time).
  VirtualNs dispatch(std::vector<AdmissionQueue>& queues, RequestClass cls,
                     VirtualNs now, ServiceRunResult& out);

  TileFabric& fabric_;
  ServingConfig config_;
  Coalescer coalescer_;
  BatchDispatcher dispatcher_;
  VirtualNs cycle_ns_;
  ServiceProbe* probe_ = nullptr;
};

}  // namespace memcim::serving

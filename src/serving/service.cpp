#include "serving/service.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim::serving {

namespace {

struct ServingMetrics {
  telemetry::Counter& arrivals;
  telemetry::Counter& admitted;
  telemetry::Counter& shed;
  telemetry::Counter& completed;
  telemetry::Counter& batches;
  telemetry::Counter& batches_partial;
  telemetry::Counter& batch_lanes;
  telemetry::Counter& flits;
  telemetry::Histogram& occupancy;
  std::array<telemetry::Histogram*, kRequestClasses> latency;
  // Per-class admission books ("serving.admitted.kmer", ...) — the
  // monitoring plane's sampler deltas these per interval.
  std::array<telemetry::Counter*, kRequestClasses> admitted_cls;
  std::array<telemetry::Counter*, kRequestClasses> shed_cls;
  std::array<telemetry::Counter*, kRequestClasses> completed_cls;
  ServingMetrics()
      : arrivals(telemetry::Registry::global().counter("serving.arrivals")),
        admitted(telemetry::Registry::global().counter("serving.admitted")),
        shed(telemetry::Registry::global().counter("serving.shed")),
        completed(telemetry::Registry::global().counter("serving.completed")),
        batches(telemetry::Registry::global().counter("serving.batches")),
        batches_partial(
            telemetry::Registry::global().counter("serving.batches_partial")),
        batch_lanes(
            telemetry::Registry::global().counter("serving.batch_lanes")),
        flits(telemetry::Registry::global().counter("serving.flits")),
        occupancy(telemetry::Registry::global().histogram(
            "serving.batch.occupancy",
            telemetry::exponential_bounds(1.0, 2.0, 7))) {
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
      const std::string cls = to_string(static_cast<RequestClass>(c));
      latency[c] = &telemetry::Registry::global().histogram(
          "serving.latency_ns." + cls,
          telemetry::exponential_bounds(64.0, 2.0, 28));
      admitted_cls[c] =
          &telemetry::Registry::global().counter("serving.admitted." + cls);
      shed_cls[c] =
          &telemetry::Registry::global().counter("serving.shed." + cls);
      completed_cls[c] =
          &telemetry::Registry::global().counter("serving.completed." + cls);
    }
  }
};

ServingMetrics& serving_metrics() {
  static ServingMetrics m;
  return m;
}

/// Books the per-request counters in bulk: each call adds what the
/// run's per-class stats grew by since the previous call, and the
/// destructor makes a last call, so the counters are exact at every
/// probe boundary and whichever way run() exits.
class ClassCounterFlush {
 public:
  using PerClass = std::array<ClassStats, kRequestClasses>;
  explicit ClassCounterFlush(const PerClass& stats) : stats_(stats) {}
  ClassCounterFlush(const ClassCounterFlush&) = delete;
  ClassCounterFlush& operator=(const ClassCounterFlush&) = delete;
  ~ClassCounterFlush() { (*this)(); }

  void operator()() {
    ServingMetrics& m = serving_metrics();
    ClassStats total;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
      const ClassStats& now = stats_[c];
      ClassStats& was = booked_[c];
      m.admitted_cls[c]->add(now.admitted - was.admitted);
      m.shed_cls[c]->add(now.shed - was.shed);
      m.completed_cls[c]->add(now.completed - was.completed);
      total.arrivals += now.arrivals - was.arrivals;
      total.admitted += now.admitted - was.admitted;
      total.shed += now.shed - was.shed;
      total.completed += now.completed - was.completed;
      was = now;
    }
    m.arrivals.add(total.arrivals);
    m.admitted.add(total.admitted);
    m.shed.add(total.shed);
    m.completed.add(total.completed);
  }

 private:
  const PerClass& stats_;
  PerClass booked_{};
};

telemetry::SpanSite& run_site() {
  static telemetry::SpanSite site("serving.run");
  return site;
}

}  // namespace

std::uint64_t ServiceRunStats::arrivals() const {
  std::uint64_t n = 0;
  for (const ClassStats& c : per_class) n += c.arrivals;
  return n;
}

std::uint64_t ServiceRunStats::completed() const {
  std::uint64_t n = 0;
  for (const ClassStats& c : per_class) n += c.completed;
  return n;
}

std::uint64_t ServiceRunStats::shed() const {
  std::uint64_t n = 0;
  for (const ClassStats& c : per_class) n += c.shed;
  return n;
}

double ServiceRunStats::mean_occupancy() const {
  return batches == 0 ? 0.0
                      : static_cast<double>(total_lanes) /
                            static_cast<double>(batches);
}

double ServiceRunStats::sustained_qps() const {
  return makespan == 0 ? 0.0
                       : static_cast<double>(completed()) * 1e9 /
                             static_cast<double>(makespan);
}

double ServiceRunStats::shed_rate() const {
  const std::uint64_t n = arrivals();
  return n == 0 ? 0.0 : static_cast<double>(shed()) / static_cast<double>(n);
}

WorkloadService::WorkloadService(
    TileFabric& fabric, const ServingConfig& config,
    const std::vector<std::vector<bool>>& kmer_database,
    const std::vector<std::vector<bool>>& cam_rows)
    : fabric_(fabric),
      config_(config),
      coalescer_(config.coalescer),
      dispatcher_(fabric, config.workload, kmer_database, cam_rows) {
  MEMCIM_CHECK_MSG(config_.queue_capacity >= 1,
                   "admission queues need capacity >= 1");
  const long long ns = std::llround(fabric_.config().noc.cycle.value() * 1e9);
  cycle_ns_ = ns < 1 ? VirtualNs{1} : static_cast<VirtualNs>(ns);
}

VirtualNs WorkloadService::cycles_to_ns(NocCycle cycles) const {
  return cycles * cycle_ns_;
}

VirtualNs WorkloadService::dispatch(std::vector<AdmissionQueue>& queues,
                                    RequestClass cls, VirtualNs now,
                                    ServiceRunResult& out) {
  ServingMetrics& m = serving_metrics();
  Batch batch = coalescer_.close(queues, cls, now);
  BatchExecution exec = dispatcher_.execute(batch);
  const VirtualNs service_ns = cycles_to_ns(exec.service_cycles);
  const VirtualNs completed_at = now + service_ns;

  ServiceRunStats& stats = out.stats;
  ++stats.batches;
  if (batch.partial) ++stats.partial_batches;
  stats.total_lanes += batch.lanes();
  stats.flits += exec.flits;
  stats.busy_ns += service_ns;
  stats.compute_energy += exec.compute_energy;
  stats.noc_energy += exec.noc_energy;
  if (completed_at > stats.makespan) stats.makespan = completed_at;

  m.batches.add(1);
  if (batch.partial) m.batches_partial.add(1);
  m.batch_lanes.add(batch.lanes());
  m.flits.add(exec.flits);
  if (telemetry::enabled())
    m.occupancy.record(static_cast<double>(batch.lanes()));

  const std::size_t ci = static_cast<std::size_t>(cls);
  stats.per_class[ci].completed += exec.responses.size();
  for (Response& resp : exec.responses) {
    resp.dispatched = now;
    resp.completed = completed_at;
    if (telemetry::enabled())
      m.latency[ci]->record(static_cast<double>(resp.latency()));
    out.responses.push_back(std::move(resp));
  }
  return completed_at;
}

ServiceRunResult WorkloadService::run(const std::vector<Request>& trace) {
  telemetry::Span span(run_site());
  ServiceRunResult out;
  out.responses.reserve(trace.size());
  // Called before every probe callback; its destructor books the rest.
  ClassCounterFlush flush(out.stats.per_class);

  std::vector<AdmissionQueue> queues;
  queues.reserve(kRequestClasses);
  for (std::size_t c = 0; c < kRequestClasses; ++c)
    queues.emplace_back(config_.queue_capacity);

  const auto queues_empty = [&queues] {
    for (const AdmissionQueue& q : queues)
      if (!q.empty()) return false;
    return true;
  };

  VirtualNs now = 0;
  VirtualNs idle_at = 0;  // instant the fabric is next free
  std::size_t next = 0;   // next un-admitted trace index

  const VirtualNs period = probe_ != nullptr ? probe_->sample_period() : 0;
  MEMCIM_CHECK_MSG(probe_ == nullptr || period >= 1,
                   "probe sample period must be >= 1 virtual ns");
  VirtualNs next_boundary = period;  // first interval is [0, period)
  const auto probe_state = [&queues] {
    ProbeState state;
    for (std::size_t c = 0; c < kRequestClasses; ++c)
      state.queue_depth[c] = queues[c].size();
    return state;
  };
  if (probe_ != nullptr) probe_->on_run_start(probe_state());

  while (next < trace.size() || !queues_empty()) {
    // 1. Admit every arrival due at or before `now` (trace order =
    //    arrival order; ties keep trace order).
    while (next < trace.size() && trace[next].arrival <= now) {
      const Request& incoming = trace[next];
      MEMCIM_CHECK_MSG(next == 0 || trace[next - 1].arrival <= incoming.arrival,
                       "arrival trace must be sorted by arrival instant");
      const std::size_t ci = static_cast<std::size_t>(incoming.cls);
      ++out.stats.per_class[ci].arrivals;
      Request admitted = incoming;
      admitted.trace = telemetry::new_root_context();
      if (queues[ci].try_push(std::move(admitted))) {
        ++out.stats.per_class[ci].admitted;
      } else {
        ShedRecord rec;
        rec.id = incoming.id;
        rec.cls = incoming.cls;
        rec.reason = ShedReason::kQueueFull;
        rec.at = incoming.arrival;
        rec.queue_depth = queues[ci].size();
        out.shed.push_back(rec);
        ++out.stats.per_class[ci].shed;
      }
      ++next;
    }

    // 2. Fabric free and a window ready → dispatch exactly one batch
    //    (the fabric is one shared resource; idle_at serialises it).
    if (now >= idle_at) {
      if (const auto cls = coalescer_.ready(queues, now); cls.has_value()) {
        idle_at = dispatch(queues, *cls, now, out);
        continue;
      }
    }

    // 3. Advance the clock to the next event: the next arrival, the
    //    fabric freeing up, or the earliest partial-window timeout.
    VirtualNs when = kNever;
    if (next < trace.size() && trace[next].arrival < when)
      when = trace[next].arrival;
    if (idle_at > now && idle_at < when) when = idle_at;
    const VirtualNs deadline = coalescer_.next_deadline(queues);
    if (deadline > now && deadline < when) when = deadline;
    MEMCIM_CHECK_MSG(when != kNever && when > now,
                     "serving event loop stalled (no future event)");
    // Fire every boundary the clock is about to cross.  Boundaries are
    // exclusive interval ends: events at exactly `b` (including the
    // admissions and dispatch about to happen at `when`) belong to the
    // next interval, so a boundary equal to `when` fires now.
    if (probe_ != nullptr)
      while (next_boundary <= when) {
        flush();
        probe_->on_sample(next_boundary, probe_state());
        next_boundary += period;
      }
    now = when;
  }
  if (probe_ != nullptr) {
    // Drain boundaries up to the makespan (completions were booked at
    // dispatch instants, but the series should still span the full
    // virtual run), then close the final partial interval.
    const VirtualNs end = std::max(out.stats.makespan, now);
    while (next_boundary <= end) {
      flush();
      probe_->on_sample(next_boundary, probe_state());
      next_boundary += period;
    }
    flush();
    probe_->on_run_end(end, probe_state());
  }
  return out;
}

}  // namespace memcim::serving

// The two serving workloads: seeded open-loop request traces replayed
// through WorkloadService::run on a NoC-costed 2×2 tile fabric with the
// monitoring plane (TimeSeriesSampler + SloEngine) attached.
//
//   serve_add_heavy    — bench_serving's production mix: 5% k-mer / 5% CAM
//                        / 90% add at a 100 ns mean gap, 16-bit words.
//                        Mostly full 64-lane add windows whose NoC
//                        sessions repeat shape.
//   serve_search_light — 45% k-mer / 45% CAM / 10% add at a 1.5 µs mean
//                        gap on a 64-row × 64-bit database and 64-row
//                        CAMs.  Windows close partial on the 20 µs
//                        timeout with varied lane counts.
#include <array>
#include <iostream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "arch/partitioner.h"
#include "common/parallel.h"
#include "device/presets.h"
#include "monitor/sampler.h"
#include "monitor/slo.h"
#include "replay.h"
#include "serving/service.h"
#include "serving/trace_gen.h"
#include "workloads/parallel_add.h"

namespace perfbench {

namespace {

using namespace memcim;
using namespace memcim::serving;

struct ServeSpec {
  TileFabricConfig fabric;
  ServingConfig serving;
  std::size_t requests = 0;
  double mean_gap_ns = 0.0;
  std::array<double, kRequestClasses> weights{};
};

/// Share of search keys copied from a resident word; the rest are
/// random, so they almost never match.
constexpr double kHitShare = 0.5;
/// Monitoring-plane sample period (bench_serving's).
constexpr VirtualNs kSamplePeriodNs = 100'000;

// bench_serving's acceptance block, kept whole: conservation, batch
// shape, shed-rate ceiling, scalar spot check, a quiet SLO plane on the
// healthy trace and a loud one under its overload drill.
constexpr std::size_t kSpotCheckRequests = 1000;
constexpr double kMaxShedRate = 0.5;
constexpr std::size_t kOverloadRequests = 60'000;
constexpr double kOverloadGapNs = 20.0;
constexpr std::size_t kOverloadQueue = 8;
constexpr VirtualNs kOverloadPeriodNs = 10'000;

ServeSpec spec_for(const std::string& name) {
  ServeSpec s;
  s.fabric.width = 2;
  s.fabric.height = 2;
  s.fabric.tile.cell = presets::crs_cell();
  s.serving.queue_capacity = 1024;
  s.serving.workload.cam.cell = presets::crs_cell();
  if (name == "serve_add_heavy") {
    s.fabric.tile.rows = 4;
    s.fabric.tile.row_bits = 16;
    s.serving.workload.add_width = 16;
    s.serving.workload.adders_per_tile = 4;
    s.serving.workload.cam.rows = 4;
    s.serving.workload.cam.word_bits = 16;
    s.requests = 150'000;
    s.mean_gap_ns = 100.0;
    s.weights = {0.05, 0.05, 0.90};
  } else {
    s.fabric.tile.rows = 32;
    s.fabric.tile.row_bits = 32;
    s.serving.workload.add_width = 32;
    s.serving.workload.adders_per_tile = 16;
    s.serving.workload.cam.rows = 64;
    s.serving.workload.cam.word_bits = 32;
    s.requests = 10'000;
    s.mean_gap_ns = 1500.0;
    s.weights = {0.45, 0.45, 0.10};
  }
  return s;
}

std::size_t tiles_of(const ServeSpec& s) { return s.fabric.width * s.fabric.height; }

// -- inputs -----------------------------------------------------------------------

struct ServeInputs {
  std::vector<std::vector<bool>> kmer_db;
  std::vector<std::vector<bool>> cam_rows;
  std::vector<Request> trace;
  /// Instant each request was due (the Poisson process is real-valued);
  /// it is admitted at the first whole virtual ns at or after it.
  std::vector<double> due;
};

ServeInputs make_inputs(const ServeSpec& s, std::uint64_t seed,
                        std::size_t requests, double mean_gap_ns) {
  InputRng rng(seed ^ 0x5E4F0000ull);
  ServeInputs in;
  const std::size_t row_bits = s.fabric.tile.row_bits;
  const std::size_t cam_bits = s.serving.workload.cam.word_bits;
  for (std::size_t i = 0; i < tiles_of(s) * s.fabric.tile.rows; ++i)
    in.kmer_db.push_back(rng.bits(row_bits));
  for (std::size_t i = 0; i < tiles_of(s) * s.serving.workload.cam.rows; ++i)
    in.cam_rows.push_back(rng.bits(cam_bits));

  const std::uint64_t add_mask =
      (std::uint64_t{1} << s.serving.workload.add_width) - 1;
  double total_weight = 0.0;
  for (const double w : s.weights) total_weight += w;
  in.trace.reserve(requests);
  in.due.reserve(requests);
  double due = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    // Open-loop Poisson arrivals: exponential gaps.
    due += -mean_gap_ns * std::log1p(-rng.unit());
    in.due.push_back(due);
    Request r;
    r.id = i;
    r.arrival = static_cast<VirtualNs>(std::ceil(due));
    const double pick = rng.unit() * total_weight;
    r.cls = pick < s.weights[0]                  ? RequestClass::kKmerQuery
            : pick < s.weights[0] + s.weights[1] ? RequestClass::kCamSearch
                                                 : RequestClass::kAddition;
    const bool hit = rng.unit() < kHitShare;
    switch (r.cls) {
      case RequestClass::kKmerQuery:
        r.key = hit ? in.kmer_db[rng.below(in.kmer_db.size())]
                    : rng.bits(row_bits);
        break;
      case RequestClass::kCamSearch:
        r.key = hit ? in.cam_rows[rng.below(in.cam_rows.size())]
                    : rng.bits(cam_bits);
        break;
      case RequestClass::kAddition:
        r.add_a = rng.next() & add_mask;
        r.add_b = rng.next() & add_mask;
        break;
    }
    in.trace.push_back(std::move(r));
  }
  return in;
}

/// Host-side answers: plain comparisons against the resident words.
class Oracle {
 public:
  Oracle(const ServeSpec& s, const ServeInputs& in)
      : add_mask_((std::uint64_t{1} << s.serving.workload.add_width) - 1) {
    for (std::size_t r = 0; r < in.kmer_db.size(); ++r)
      kmer_[pack_word(in.kmer_db[r])].push_back(r);
    for (std::size_t r = 0; r < in.cam_rows.size(); ++r)
      cam_[pack_word(in.cam_rows[r])].push_back(r);
  }

  [[nodiscard]] bool payload_ok(const Request& q, const Response& r) const {
    switch (q.cls) {
      case RequestClass::kAddition:
        return r.sum == ((q.add_a + q.add_b) & add_mask_) && r.matches.empty();
      case RequestClass::kKmerQuery:
        return r.matches == lookup(kmer_, q.key);
      case RequestClass::kCamSearch:
        return r.matches == lookup(cam_, q.key);
    }
    return false;
  }

 private:
  using Index = std::unordered_map<std::uint64_t, std::vector<std::size_t>>;
  static const std::vector<std::size_t>& lookup(const Index& index,
                                                const std::vector<bool>& key) {
    static const std::vector<std::size_t> kNone;
    const auto it = index.find(pack_word(key));
    return it == index.end() ? kNone : it->second;
  }
  std::uint64_t add_mask_;
  Index kmer_;
  Index cam_;
};

// -- one service instance ---------------------------------------------------------

struct ServeWorld {
  ServeWorld(const ServeSpec& s, const ServeInputs& in, const ServingConfig& cfg,
             VirtualNs period)
      : fabric(s.fabric),
        service(fabric, cfg, in.kmer_db, in.cam_rows),
        slo(monitor::default_serving_slos(cfg.queue_capacity)),
        sampler({period, 4096}, &slo) {
    service.set_probe(&sampler);
  }
  TileFabric fabric;
  WorkloadService service;
  monitor::SloEngine slo;
  monitor::TimeSeriesSampler sampler;
};

// -- checks and virtual books -------------------------------------------------------

/// Virtual outputs of one run.
struct ServeBooks {
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;
  double capacity_qps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double energy_fj = 0.0;
  double partial_share = 0.0;
};

ServeBooks check_run(const ServeSpec& s, const ServeInputs& in,
                     const ServeWorld& w, const ServiceRunResult& r,
                     Outcome& out) {
  const Oracle oracle(s, in);
  const ServiceRunStats& st = r.stats;
  ServeBooks b;
  b.completed = st.completed();
  b.shed = st.shed();

  out.expect(st.arrivals() == in.trace.size() &&
                 st.completed() + st.shed() == st.arrivals(),
             "request conservation (completed + shed == arrivals)");
  out.expect(r.responses.size() == st.completed() && r.shed.size() == st.shed(),
             "response and shed counts match the run stats");
  out.expect(st.shed_rate() <= kMaxShedRate, "shed rate within 0.5");
  out.expect(w.slo.alerts_fired() == 0, "no SLO alert on the healthy trace");

  std::vector<std::uint8_t> seen(in.trace.size(), 0);
  bool ids_ok = true, stamps_ok = true, shape_ok = true;
  std::vector<double> latency;  // completion − due instant
  latency.reserve(r.responses.size());
  std::uint64_t batches = 0, partial = 0, lanes = 0;
  Digest d;
  for (std::size_t i = 0; i < r.responses.size(); ++i) {
    const Response& x = r.responses[i];
    if (x.id >= in.trace.size() || seen[x.id]++ != 0) {
      ids_ok = false;
      continue;
    }
    const Request& q = in.trace[x.id];
    if (x.cls != q.cls || !oracle.payload_ok(q, x)) ++b.wrong;
    stamps_ok = stamps_ok && x.arrival == q.arrival && x.dispatched >= x.arrival &&
                x.completed >= x.dispatched;
    // Window shape: responses of one batch are contiguous, one class,
    // at most 64 lanes, one dispatch instant.
    if (i == 0 || x.batch_seq != r.responses[i - 1].batch_seq) {
      const bool fits = x.batch_lanes >= 1 && x.batch_lanes <= kPackedLanes &&
                        i + x.batch_lanes <= r.responses.size() &&
                        (i == 0 || x.batch_seq > r.responses[i - 1].batch_seq);
      shape_ok = shape_ok && fits;
      for (std::size_t j = i; fits && j < i + x.batch_lanes; ++j) {
        const Response& y = r.responses[j];
        shape_ok = shape_ok && y.batch_seq == x.batch_seq && y.cls == x.cls &&
                   y.dispatched == x.dispatched && y.completed == x.completed;
      }
      ++batches;
      lanes += x.batch_lanes;
      if (x.batch_lanes < s.serving.coalescer.max_lanes) ++partial;
    }
    latency.push_back(static_cast<double>(x.completed) - in.due[x.id]);
    d.add(x.id);
    d.add(static_cast<std::uint64_t>(x.cls));
    d.add(x.sum);
    d.add(x.matches.size());
    for (const std::size_t m : x.matches) d.add(m);
    d.add(x.arrival);
    d.add(x.dispatched);
    d.add(x.completed);
    d.add(x.batch_seq);
    d.add(x.batch_lanes);
  }
  for (const ShedRecord& x : r.shed) {
    if (x.id >= in.trace.size() || seen[x.id]++ != 0) ids_ok = false;
    d.add(x.id);
    d.add(x.at);
    d.add(x.queue_depth);
  }
  out.expect(ids_ok, "every request answered or shed exactly once");
  out.expect(stamps_ok, "response timestamps are ordered and echo arrivals");
  out.expect(shape_ok, "windows are contiguous, single-class, <= 64 lanes");
  out.expect(batches == st.batches && partial == st.partial_batches &&
                 lanes == st.total_lanes,
             "batch books match the responses");
  out.expect(b.wrong == 0, std::to_string(b.wrong) + " wrong payload(s)");

  for (const ClassStats& c : st.per_class) {
    d.add(c.arrivals);
    d.add(c.admitted);
    d.add(c.shed);
    d.add(c.completed);
  }
  d.add(st.batches);
  d.add(st.partial_batches);
  d.add(st.total_lanes);
  d.add(st.flits);
  d.add(st.makespan);
  d.add(st.busy_ns);
  d.add_double(st.compute_energy.value());
  d.add_double(st.noc_energy.value());
  const NocStats& ns = w.fabric.noc().stats();
  for (const std::uint64_t v :
       {ns.packets, ns.flits, ns.flit_hops, ns.ejections, ns.buffer_writes,
        ns.buffer_reads, ns.xbar_traversals, ns.credit_stalls, ns.cycles})
    d.add(v);
  d.add_double(w.fabric.energy().value());
  d.add(w.sampler.total_intervals());
  d.add(w.slo.events().size());

  if (b.completed > 0) {
    b.capacity_qps = static_cast<double>(b.completed) * 1e9 /
                     static_cast<double>(st.busy_ns);
    b.p50_ns = nearest_rank(latency, 0.50);
    b.p99_ns = nearest_rank(latency, 0.99);
    b.energy_fj = (st.compute_energy + st.noc_energy).value() /
                  static_cast<double>(b.completed) * 1e15;
  }
  b.partial_share = st.batches == 0 ? 0.0
                                    : static_cast<double>(st.partial_batches) /
                                          static_cast<double>(st.batches);
  for (const double v : {b.capacity_qps, b.p50_ns, b.p99_ns, b.energy_fj})
    d.add_double(v);
  b.digest = d.value();
  return b;
}

/// Payloads of the first requests executed one per batch on a fresh
/// fabric (serving::scalar_reference) must equal the batched run's.
void scalar_spot_check(const ServeSpec& s, const ServeInputs& in,
                       const ServiceRunResult& r, Outcome& out) {
  const std::size_t n = std::min(kSpotCheckRequests, in.trace.size());
  const std::vector<Request> prefix(in.trace.begin(),
                                    in.trace.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<Response> scalar = scalar_reference(
      s.fabric, s.serving.workload, in.kmer_db, in.cam_rows, prefix);
  std::vector<const Response*> by_id(n, nullptr);
  for (const Response& x : r.responses)
    if (x.id < n) by_id[x.id] = &x;
  std::size_t diverged = 0;
  for (const Response& x : scalar)
    if (x.id >= n || (by_id[x.id] != nullptr && !payload_equal(x, *by_id[x.id])))
      ++diverged;
  out.expect(scalar.size() == n && diverged == 0,
             "scalar_reference spot check (" + std::to_string(diverged) +
                 " of " + std::to_string(n) + " diverge)");
}

/// The monitoring plane must alert when the service is driven far past
/// its admission capacity.
void overload_drill(const ServeSpec& s, std::uint64_t seed, Outcome& out) {
  const ServeInputs in = make_inputs(s, seed ^ 0x0DDull, kOverloadRequests,
                                     kOverloadGapNs);
  ServingConfig cfg = s.serving;
  cfg.queue_capacity = kOverloadQueue;
  ServeWorld w(s, in, cfg, kOverloadPeriodNs);
  const ServiceRunResult r = w.service.run(in.trace);
  std::size_t burn = 0;
  for (const monitor::HealthEvent& e : w.slo.events())
    if (e.kind == monitor::HealthEventKind::kBurnRateAlert) ++burn;
  out.expect(burn > 0, "overload drill fires a burn-rate alert");
  out.expect(r.stats.completed() + r.stats.shed() == r.stats.arrivals(),
             "overload drill conserves requests");
}

// -- traced mode ------------------------------------------------------------------

/// Times the monitoring plane's probe callbacks from outside.
class TimedProbe final : public ServiceProbe {
 public:
  TimedProbe(ServiceProbe& inner, SpanLog& log) : inner_(inner), log_(log) {}
  [[nodiscard]] VirtualNs sample_period() const override {
    return inner_.sample_period();
  }
  void on_run_start(const ProbeState& state) override {
    timed([&] { inner_.on_run_start(state); });
  }
  void on_sample(VirtualNs boundary, const ProbeState& state) override {
    timed([&] { inner_.on_sample(boundary, state); });
  }
  void on_run_end(VirtualNs end, const ProbeState& state) override {
    timed([&] { inner_.on_run_end(end, state); });
  }
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

 private:
  template <class F>
  void timed(F&& f) {
    const std::uint64_t t0 = log_.now();
    f();
    const std::uint64_t t1 = log_.now();
    log_.add("monitor.probe", "serving", "run", calls, t0, t1);
    ++calls;
    ns += t1 - t0;
  }
  ServiceProbe& inner_;
  SpanLog& log_;
};

/// Rebuild the executed windows from the responses (batch_seq, class,
/// lane order, dispatch instant).
std::vector<Batch> rebuild_batches(const ServeSpec& s, const ServeInputs& in,
                                   const ServiceRunResult& r) {
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < r.responses.size(); ++i) {
    const Response& x = r.responses[i];
    if (i == 0 || x.batch_seq != r.responses[i - 1].batch_seq) {
      Batch b;
      b.cls = x.cls;
      b.seq = x.batch_seq;
      b.formed = x.dispatched;
      b.partial = x.batch_lanes < s.serving.coalescer.max_lanes;
      batches.push_back(std::move(b));
    }
    Request q = in.trace[x.id];
    q.trace = {x.trace_id, 0};
    batches.back().requests.push_back(std::move(q));
  }
  return batches;
}

/// Standalone lower-layer units programmed like the fabric's.
struct ComputeUnits {
  ComputeUnits(const ServeSpec& s, const ServeInputs& in) {
    const std::size_t rows = s.fabric.tile.rows;
    const CamConfig& cam = s.serving.workload.cam;
    for (std::size_t t = 0; t < tiles_of(s); ++t) {
      tiles.emplace_back(s.fabric.tile);
      cams.emplace_back(cam);
    }
    for (std::size_t r = 0; r < in.kmer_db.size(); ++r)
      tiles[r / rows].store_row(r % rows, in.kmer_db[r]);
    for (std::size_t r = 0; r < in.cam_rows.size(); ++r)
      cams[r / cam.rows].write_row(r % cam.rows, in.cam_rows[r]);
  }
  std::vector<CimTile> tiles;
  std::vector<CrsCam> cams;
};

/// What one window's compute produced on one tile (or adder shard).
struct TileWork {
  std::vector<std::vector<std::size_t>> matches;  ///< per query, global rows
  std::vector<std::uint64_t> sums;
  Time latency{0.0};
  Energy energy{0.0};
  std::uint64_t pulses = 0;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;  ///< host ns inside the module calls
};

/// Re-run one window's compute for tile `t`, exactly as the
/// dispatcher does, optionally timing each module call.
TileWork tile_work(const ServeSpec& s, const Batch& b, std::size_t t,
                   ComputeUnits& u, bool timed) {
  TileWork w;
  const auto call = [&](auto&& f) {
    if (!timed) return f();
    const auto t0 = Clock::now();
    auto result = f();
    w.ns += elapsed_ns(t0, Clock::now());
    return result;
  };
  switch (b.cls) {
    case RequestClass::kKmerQuery: {
      const std::size_t rows = s.fabric.tile.rows;
      CimTile& tile = u.tiles[t];
      const Time l0 = tile.stats().latency;
      const Energy e0 = tile.stats().energy;
      for (const Request& q : b.requests) {
        const std::vector<bool> m = call([&] { return tile.parallel_compare(q.key); });
        std::vector<std::size_t> rows_hit;
        for (std::size_t r = 0; r < rows; ++r)
          if (m[r]) rows_hit.push_back(t * rows + r);
        w.matches.push_back(std::move(rows_hit));
        ++w.calls;
      }
      w.latency = tile.stats().latency - l0;
      w.energy = tile.stats().energy - e0;
      break;
    }
    case RequestClass::kCamSearch: {
      const std::size_t rows = s.serving.workload.cam.rows;
      for (const Request& q : b.requests) {
        const CamSearchResult r = call([&] { return u.cams[t].search(q.key); });
        std::vector<std::size_t> rows_hit;
        for (const std::size_t row : r.matching_rows) rows_hit.push_back(t * rows + row);
        w.matches.push_back(std::move(rows_hit));
        w.latency += r.latency;
        w.energy += r.energy;
        w.pulses += s.serving.workload.cam.search_pulses;
        ++w.calls;
      }
      break;
    }
    case RequestClass::kAddition: {
      const ShardPlan plan = Partitioner::batch_aligned(
          b.requests.size(), tiles_of(s), s.serving.workload.adders_per_tile);
      const Shard& sh = plan.shards[t];
      if (sh.empty()) break;
      ParallelAddParams params;
      params.operations = sh.size();
      params.width = s.serving.workload.add_width;
      params.adders = s.serving.workload.adders_per_tile;
      std::vector<std::uint64_t> a, bb;
      for (std::size_t i = sh.begin; i < sh.end; ++i) {
        a.push_back(b.requests[i].add_a);
        bb.push_back(b.requests[i].add_b);
      }
      const ParallelAddResult r = call(
          [&] { return run_parallel_add_ops(params, s.fabric.tile.cell, a, bb); });
      w.sums = r.sums;
      w.latency = r.latency;
      w.energy = r.total_energy;
      w.pulses = r.total_pulses;
      w.calls = sh.size();  // additions
      break;
    }
  }
  return w;
}

/// Host-time totals of one traced round: the untraced and traced
/// serving passes plus the three replays, each checked against the
/// round's own traced run.
struct ServeRound {
  std::uint64_t untraced_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t monitor_calls = 0;
  std::uint64_t monitor_ns = 0;
  std::array<std::uint64_t, kRequestClasses> calls{};
  std::array<std::uint64_t, kRequestClasses> exec_ns{};
  std::vector<double> exec_samples;
  std::uint64_t compare_calls = 0, compare_ns = 0;
  std::uint64_t cam_calls = 0, cam_ns = 0;
  std::uint64_t add_ops = 0, add_ns = 0, pulses = 0;
  PoolBooks arch_pool, logic_pool;
  NocLayer noc;
  ServeBooks books;
  ServiceRunStats stats;
  std::uint64_t intervals = 0;
  std::vector<VirtualNs> waits;

  [[nodiscard]] double exec_total() const {
    return static_cast<double>(exec_ns[0] + exec_ns[1] + exec_ns[2]);
  }
};

ServeRound traced_round(const ServeSpec& spec, const ServeInputs& in, SpanLog& log,
                        Outcome& out) {
  ServeRound tr;
  // Untraced pass: the wall the trace overhead is measured against.
  ServeWorld plain(spec, in, spec.serving, kSamplePeriodNs);
  ServiceRunResult plain_run;
  tr.untraced_ns = time_ns([&] { plain_run = plain.service.run(in.trace); });
  const ServeBooks plain_books = check_run(spec, in, plain, plain_run, out);

  // Traced pass: serving.run with the monitor's callbacks timed.
  ServeWorld world(spec, in, spec.serving, kSamplePeriodNs);
  TimedProbe probe(world.sampler, log);
  world.service.set_probe(&probe);
  const std::uint64_t r0 = log.now();
  const ServiceRunResult run = world.service.run(in.trace);
  const std::uint64_t r1 = log.now();
  log.add("serving.run", "", "run", 0, r0, r1);
  tr.run_ns = r1 - r0;
  tr.monitor_calls = probe.calls;
  tr.monitor_ns = probe.ns;
  tr.books = check_run(spec, in, world, run, out);
  tr.stats = run.stats;
  tr.intervals = world.sampler.total_intervals();
  for (const Response& x : run.responses) tr.waits.push_back(x.dispatched - x.arrival);
  out.expect(tr.books.digest == plain_books.digest,
             "traced run reproduces the untraced virtual digest");
  if (!out.correct) return tr;  // the replays below trust the checked run

  // (a) dispatcher: the same windows through a fresh BatchDispatcher.
  const std::vector<Batch> batches = rebuild_batches(spec, in, run);
  TileFabric fabric2(spec.fabric);
  BatchDispatcher dispatcher(fabric2, spec.serving.workload, in.kmer_db,
                             in.cam_rows);
  std::vector<BatchExecution> execs;
  std::vector<NocSession> sessions;
  execs.reserve(batches.size());
  {
    const auto cycle_ns = static_cast<VirtualNs>(
        std::max<long long>(1, std::llround(spec.fabric.noc.cycle.value() * 1e9)));
    std::size_t next = 0;
    std::uint64_t flits = 0;
    Energy compute{0.0}, noc{0.0};
    bool same = true;
    for (const Batch& b : batches) {
      const std::size_t s0 = fabric2.noc().deliveries().size();
      const std::uint64_t t0 = log.now();
      BatchExecution e = dispatcher.execute(b);
      const std::uint64_t t1 = log.now();
      log.add("dispatcher.execute", "serving", "dispatch", b.seq, t0, t1);
      sessions.push_back({s0, fabric2.noc().deliveries().size(), b.seq});
      const auto c = static_cast<std::size_t>(b.cls);
      ++tr.calls[c];
      tr.exec_ns[c] += t1 - t0;
      tr.exec_samples.push_back(static_cast<double>(t1 - t0));
      for (const Response& x : e.responses) {
        const Response& o = run.responses[next++];
        same = same && payload_equal(x, o) &&
               o.completed - o.dispatched == e.service_cycles * cycle_ns;
      }
      flits += e.flits;
      compute += e.compute_energy;
      noc += e.noc_energy;
      execs.push_back(std::move(e));
    }
    out.expect(same && next == run.responses.size(),
               "dispatcher replay reproduces payloads and service times");
    out.expect(flits == run.stats.flits &&
                   compute.value() == run.stats.compute_energy.value() &&
                   noc.value() == run.stats.noc_energy.value(),
               "dispatcher replay reproduces flits and energy books");
  }

  // (b) compute: each window's per-tile work on standalone tiles, CAMs
  // and adder farms — timed call by call as pool tasks, then through
  // parallel_for on a second set for the pool's efficiency.
  const std::size_t tiles = tiles_of(spec);
  ComputeUnits serial_units(spec, in), pool_units(spec, in);
  std::vector<double> serial_ns(batches.size(), 0.0);
  run_as_pool_task([&] {
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      const Batch& b = batches[bi];
      const BatchExecution& e = execs[bi];
      std::vector<TileWork> work;
      const std::uint64_t t0 = log.now();
      for (std::size_t t = 0; t < tiles; ++t)
        work.push_back(tile_work(spec, b, t, serial_units, true));
      const char* layer = b.cls == RequestClass::kKmerQuery   ? "arch.compare"
                          : b.cls == RequestClass::kCamSearch ? "logic.cam"
                                                              : "logic.add";
      log.add(layer, "dispatcher", "compute", b.seq, t0, log.now());

      // Merge exactly as the dispatcher does and compare the books.
      Energy energy{0.0};
      std::vector<NocCycle> offsets;
      for (std::size_t t = 0; t < tiles; ++t) {
        const TileWork& w = work[t];
        serial_ns[bi] += static_cast<double>(w.ns);
        if (b.cls == RequestClass::kAddition && w.sums.empty()) continue;
        energy += w.energy;
        offsets.push_back(world.fabric.compute_cycles(w.latency));
      }
      bool same = energy.value() == e.compute_energy.value() &&
                  offsets == completion_offsets(world.fabric.noc(), sessions[bi]);
      std::size_t lane = 0;
      for (std::size_t t = 0; t < tiles; ++t)
        for (const std::uint64_t sum : work[t].sums)
          same = same && lane < e.responses.size() && sum == e.responses[lane++].sum;
      for (std::size_t q = 0; b.cls != RequestClass::kAddition && q < b.requests.size();
           ++q) {
        std::vector<std::size_t> merged;
        for (std::size_t t = 0; t < tiles; ++t)
          merged.insert(merged.end(), work[t].matches[q].begin(),
                        work[t].matches[q].end());
        same = same && merged == e.responses[q].matches;
      }
      out.expect(same, "compute replay reproduces window " + std::to_string(b.seq));
      if (!same) break;

      for (const TileWork& w : work) {
        tr.pulses += w.pulses;
        if (b.cls == RequestClass::kKmerQuery) {
          tr.compare_calls += w.calls;
          tr.compare_ns += w.ns;
        } else if (b.cls == RequestClass::kCamSearch) {
          tr.cam_calls += w.calls;
          tr.cam_ns += w.ns;
        } else {
          tr.add_ops += w.calls;
          tr.add_ns += w.ns;
        }
      }
    }
  });
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const Batch& b = batches[bi];
    const std::uint64_t par = time_ns([&] {
      parallel_for(0, tiles, 1, [&](std::size_t t) {
        (void)tile_work(spec, b, t, pool_units, false);
      });
    });
    PoolBooks& pool =
        b.cls == RequestClass::kKmerQuery ? tr.arch_pool : tr.logic_pool;
    pool.add_unit(serial_ns[bi], static_cast<double>(par));
  }

  // (c) NoC: every session re-injected into one standalone mesh.
  tr.noc = replay_noc(world.fabric.noc(), sessions, "dispatcher", log, out);
  return tr;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve_add_heavy" || name == "serve_search_light";
}

Outcome run_serve(const RunOptions& opt) {
  const ServeSpec spec = spec_for(opt.workload);
  Outcome out;
  HostSamples host;
  std::optional<ServeBooks> first;
  repeat_for(opt.seconds, out, [&](bool timed) {
    const auto t0 = Clock::now();
    const ServeInputs in = make_inputs(spec, opt.seed, spec.requests, spec.mean_gap_ns);
    warm_compile_cache(spec.fabric.tile);
    ServeWorld w(spec, in, spec.serving, kSamplePeriodNs);
    const auto t1 = Clock::now();
    const ServiceRunResult r = w.service.run(in.trace);
    const auto t2 = Clock::now();
    const ServeBooks b = check_run(spec, in, w, r, out);
    out.attempted += in.trace.size();
    out.failed += b.shed + b.wrong;
    if (timed) {
      host.setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      host.items_per_s.push_back(static_cast<double>(b.completed) /
                                 std::chrono::duration<double>(t2 - t1).count());
    }
    if (!first) {
      first = b;
      scalar_spot_check(spec, in, r, out);
    }
    return b.digest;
  });
  overload_drill(spec, opt.seed, out);

  add_host_metrics(out, host);
  out.metric("virt_capacity_qps", first->capacity_qps, "items/s");
  out.metric("virt_p50_ns", first->p50_ns, "ns");
  out.metric("virt_p99_ns", first->p99_ns, "ns");
  out.metric("virt_energy_per_item_fj", first->energy_fj, "fJ");
  std::ostringstream note;
  note << "virt: digest " << hex64(first->digest) << ", " << first->completed
       << " responses, " << first->shed << " shed, fail_rate "
       << static_cast<double>(out.failed) / static_cast<double>(out.attempted)
       << ", serving.partial_batch_share " << first->partial_share
       << " (digest checked at every repetition and at 1 thread)";
  out.notes.push_back(note.str());
  return out;
}

Outcome trace_serve(const RunOptions& opt) {
  const ServeSpec spec = spec_for(opt.workload);
  Outcome out;
  SpanLog log;
  const ServeInputs in = make_inputs(spec, opt.seed, spec.requests, spec.mean_gap_ns);

  // isa: the first cached_word_equality is the compile.
  const std::uint64_t compile_ns = time_ns([&] { warm_compile_cache(spec.fabric.tile); });

  const std::vector<ServeRound> rounds = rounds_for<ServeRound>(
      opt.seconds, out, log, [&] { return traced_round(spec, in, log, out); });
  for (const ServeRound& r : rounds) {
    out.attempted += 2 * in.trace.size();  // untraced + traced pass
    out.failed += 2 * (r.books.shed + r.books.wrong);
  }
  const ServeRound& first = rounds.front();

  const double run_ns = best(rounds, [](const ServeRound& r) { return r.run_ns; });
  const double untraced_ns =
      best(rounds, [](const ServeRound& r) { return r.untraced_ns; });
  const double monitor_ns =
      best(rounds, [](const ServeRound& r) { return r.monitor_ns; });
  const double exec_total =
      best(rounds, [](const ServeRound& r) { return r.exec_total(); });
  const auto exec_ns = [&](std::size_t c) {
    return best(rounds, [c](const ServeRound& r) { return r.exec_ns[c]; });
  };
  const double arch_ns =
      best(rounds, [](const ServeRound& r) { return r.arch_pool.contribution_ns; });
  const double logic_ns =
      best(rounds, [](const ServeRound& r) { return r.logic_pool.contribution_ns; });
  const double noc_ns = best(rounds, [](const ServeRound& r) { return r.noc.run_ns; });
  const double compare_ns =
      best(rounds, [](const ServeRound& r) { return r.compare_ns; });
  const double cam_ns = best(rounds, [](const ServeRound& r) { return r.cam_ns; });
  const double add_ns = best(rounds, [](const ServeRound& r) { return r.add_ns; });
  const double serial_ns = best(rounds, [](const ServeRound& r) {
    return r.arch_pool.serial_ns + r.logic_pool.serial_ns;
  });
  const double parallel_ns = best(rounds, [](const ServeRound& r) {
    return r.arch_pool.parallel_ns + r.logic_pool.parallel_ns;
  });
  std::vector<double> samples;
  for (const ServeRound& r : rounds)
    samples.insert(samples.end(), r.exec_samples.begin(), r.exec_samples.end());

  const double dispatcher_self = exec_total - arch_ns - logic_ns - noc_ns;
  const double serving_self = run_ns - exec_total - monitor_ns;
  const ServiceRunStats& st = first.stats;
  const NocLayer& noc = first.noc;
  const auto per = [](double total, double count) {
    return count > 0.0 ? total / count : 0.0;
  };
  const auto threads = static_cast<double>(parallel_threads());
  const LayerValues values = {
      {"serving.run_ns", run_ns},
      {"serving.self_ns", serving_self},
      {"serving.batches", static_cast<double>(st.batches)},
      {"serving.partial_batch_share", first.books.partial_share},
      {"serving.occupancy_lanes", st.mean_occupancy()},
      {"serving.queue_wait_p50_ns",
       static_cast<double>(nearest_rank(first.waits, 0.50))},
      {"serving.queue_wait_p99_ns",
       static_cast<double>(nearest_rank(first.waits, 0.99))},
      {"serving.fabric_busy_share",
       per(static_cast<double>(st.busy_ns), static_cast<double>(st.makespan))},
      {"serving.shed", static_cast<double>(st.shed())},
      {"dispatcher.calls.kmer", static_cast<double>(first.calls[0])},
      {"dispatcher.calls.cam", static_cast<double>(first.calls[1])},
      {"dispatcher.calls.add", static_cast<double>(first.calls[2])},
      {"dispatcher.execute_ns.kmer", exec_ns(0)},
      {"dispatcher.execute_ns.cam", exec_ns(1)},
      {"dispatcher.execute_ns.add", exec_ns(2)},
      {"dispatcher.execute_p50_ns", nearest_rank(samples, 0.50)},
      {"dispatcher.execute_p99_ns", nearest_rank(samples, 0.99)},
      {"dispatcher.execute_samples", static_cast<double>(samples.size())},
      {"dispatcher.self_ns", dispatcher_self},
      {"arch.compare_calls", static_cast<double>(first.compare_calls)},
      {"arch.compare_ns", compare_ns},
      {"arch.compare_ns_per_row",
       per(compare_ns,
           static_cast<double>(first.compare_calls * spec.fabric.tile.rows))},
      {"logic.cam_searches", static_cast<double>(first.cam_calls)},
      {"logic.cam_ns", cam_ns},
      {"logic.add_ops", static_cast<double>(first.add_ops)},
      {"logic.add_ns", add_ns},
      {"logic.add_ns_per_op", per(add_ns, static_cast<double>(first.add_ops))},
      {"logic.pulses", static_cast<double>(first.pulses)},
      {"noc.sessions", static_cast<double>(noc.sessions)},
      {"noc.run_ns", noc_ns},
      {"noc.cycles", static_cast<double>(noc.cycles)},
      {"noc.ns_per_cycle", per(noc_ns, static_cast<double>(noc.cycles))},
      {"noc.flits", static_cast<double>(noc.flits)},
      {"noc.flit_hops", static_cast<double>(noc.flit_hops)},
      {"noc.credit_stalls", static_cast<double>(noc.credit_stalls)},
      {"noc.nic_wait_p99_cycles", static_cast<double>(noc.nic_wait_p99_cycles)},
      {"noc.repeat_session_share", noc.repeat_session_share},
      {"monitor.calls", static_cast<double>(first.monitor_calls)},
      {"monitor.ns", monitor_ns},
      {"monitor.intervals", static_cast<double>(first.intervals)},
      {"isa.compile_ns", static_cast<double>(compile_ns)},
      {"pool.threads", threads},
      {"pool.efficiency", per(serial_ns, threads * parallel_ns)},
      {"trace.overhead_pct", 100.0 * (run_ns - untraced_ns) / untraced_ns},
  };
  add_layer_metrics(out, values);

  const std::vector<LayerRow> rows = {
      {"serving", 1, run_ns, serving_self},
      {"  dispatcher", first.exec_samples.size(), exec_total, dispatcher_self},
      {"    arch", first.compare_calls, arch_ns, arch_ns},
      {"    logic", first.cam_calls + first.add_ops, logic_ns, logic_ns},
      {"    noc", noc.sessions, noc_ns, noc_ns},
      {"  monitor", first.monitor_calls, monitor_ns, monitor_ns},
  };
  std::cout << "per-layer host time, best of " << rounds.size() << " rounds:\n";
  print_layer_table(rows, run_ns, "serving.run_ns");
  const bool nested = arch_ns + logic_ns + noc_ns <= exec_total &&
                      exec_total + monitor_ns <= run_ns;
  out.notes.push_back(std::string("layer nesting (children <= parent): ") +
                      (nested ? "holds" : "VIOLATED (host-time noise)"));
  out.notes.push_back("replays: " + std::string(out.correct ? "every book reproduced exactly"
                                                            : "DIVERGED") +
                      "; " + std::to_string(log.size()) + " spans");
  if (!opt.span_file.empty() && !log.write(opt.span_file, opt.workload, opt.seed))
    out.fail("cannot write span log " + opt.span_file);
  return out;
}

}  // namespace perfbench

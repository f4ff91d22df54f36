// Golden hashes for the serving path.  Every response field, the shed
// records, the run stats (energies by their bits), the mesh's NoC
// statistics and the serving.* telemetry a run books are hashed and held
// to constants recorded at the commit before a window's tiles ran
// inline on the serving thread and the per-request counters booked in
// bulk, so any change to what a window computes, how its traffic is
// costed or when a counter is booked shows here.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "serving/service.h"
#include "serving/trace_gen.h"
#include "serving_test_util.h"
#include "telemetry/telemetry.h"

namespace memcim::serving {
namespace {

/// FNV-1a over the eight bytes of `value`, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 0x0000'0100'0000'01B3u;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xCBF2'9CE4'8422'2325u;

/// The serving counters: run-wide, then admitted, shed and completed
/// per class.
std::vector<std::string> counter_names() {
  std::vector<std::string> names = {
      "serving.arrivals", "serving.admitted",        "serving.shed",
      "serving.completed", "serving.batches",        "serving.batches_partial",
      "serving.batch_lanes", "serving.flits",        "serving.dispatch.calls"};
  for (const char* what : {"admitted", "shed", "completed"})
    for (std::size_t c = 0; c < kRequestClasses; ++c)
      names.push_back(std::string("serving.") + what + "." +
                      to_string(static_cast<RequestClass>(c)));
  return names;
}

std::vector<std::uint64_t> read_counters() {
  std::vector<std::uint64_t> values;
  for (const std::string& name : counter_names())
    values.push_back(telemetry::Registry::global().counter(name).value());
  return values;
}

/// Count then bucket counts of every serving histogram (empty for one
/// not registered yet).
std::vector<std::vector<std::uint64_t>> read_histograms() {
  const telemetry::MetricsSnapshot snap =
      telemetry::Registry::global().snapshot();
  std::vector<std::vector<std::uint64_t>> values;
  for (const char* name :
       {"serving.batch.occupancy", "serving.latency_ns.kmer",
        "serving.latency_ns.cam", "serving.latency_ns.add"}) {
    std::vector<std::uint64_t>& v = values.emplace_back();
    if (const telemetry::HistogramSample* h = snap.histogram(name)) {
      v.push_back(h->count);
      v.insert(v.end(), h->bucket_counts.begin(), h->bucket_counts.end());
    }
  }
  return values;
}

/// Hashes the serving counters and queue depths at every boundary, as
/// counts since the run started.
class CounterProbe : public ServiceProbe {
 public:
  explicit CounterProbe(VirtualNs period) : period_(period) {}
  [[nodiscard]] VirtualNs sample_period() const override { return period_; }
  void on_run_start(const ProbeState& state) override {
    start_ = read_counters();
    observe(0, state);
  }
  void on_sample(VirtualNs boundary, const ProbeState& state) override {
    observe(boundary, state);
  }
  void on_run_end(VirtualNs end, const ProbeState& state) override {
    observe(end, state);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  void observe(VirtualNs at, const ProbeState& state) {
    hash_ = fnv1a(hash_, at);
    for (const std::size_t depth : state.queue_depth)
      hash_ = fnv1a(hash_, depth);
    const std::vector<std::uint64_t> now = read_counters();
    for (std::size_t i = 0; i < now.size(); ++i)
      hash_ = fnv1a(hash_, now[i] - start_[i]);
  }

  VirtualNs period_;
  std::vector<std::uint64_t> start_;
  std::uint64_t hash_ = kFnvBasis;
};

std::uint64_t hash_run(const ServiceRunResult& run, const NocStats& noc) {
  std::uint64_t h = kFnvBasis;
  h = fnv1a(h, run.responses.size());
  for (const Response& r : run.responses) {
    for (const std::uint64_t v :
         {r.id, static_cast<std::uint64_t>(r.cls), r.sum, r.arrival,
          r.dispatched, r.completed, r.batch_seq,
          static_cast<std::uint64_t>(r.batch_lanes),
          static_cast<std::uint64_t>(r.matches.size())})
      h = fnv1a(h, v);
    for (const std::size_t m : r.matches) h = fnv1a(h, m);
  }
  h = fnv1a(h, run.shed.size());
  for (const ShedRecord& s : run.shed)
    for (const std::uint64_t v :
         {s.id, static_cast<std::uint64_t>(s.cls),
          static_cast<std::uint64_t>(s.reason), s.at,
          static_cast<std::uint64_t>(s.queue_depth)})
      h = fnv1a(h, v);
  const ServiceRunStats& st = run.stats;
  for (const ClassStats& c : st.per_class)
    for (const std::uint64_t v : {c.arrivals, c.admitted, c.shed, c.completed})
      h = fnv1a(h, v);
  for (const std::uint64_t v :
       {st.batches, st.partial_batches, st.total_lanes, st.flits, st.makespan,
        st.busy_ns, std::bit_cast<std::uint64_t>(st.compute_energy.value()),
        std::bit_cast<std::uint64_t>(st.noc_energy.value())})
    h = fnv1a(h, v);
  for (const std::uint64_t v :
       {noc.packets, noc.flits, noc.flit_hops, noc.ejections,
        noc.buffer_writes, noc.buffer_reads, noc.xbar_traversals,
        noc.credit_stalls, noc.cycles})
    h = fnv1a(h, v);
  return h;
}

struct TelemetryOn {
  const bool was = telemetry::enabled();
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(was); }
};

struct Case {
  const char* name;
  std::size_t mesh_width, mesh_height;
  std::size_t rows, row_bits;  ///< k-mer tile and CAM shape
  std::size_t add_width, adders_per_tile;
  std::size_t queue_capacity;
  std::size_t requests;
  double mean_gap_ns;
  std::array<double, kRequestClasses> weights;
  VirtualNs probe_period;  ///< 0: no probe
  std::uint64_t run;        ///< hash_run
  std::uint64_t telemetry;  ///< counter and histogram deltas, probe
};

TEST(ServingGolden, RunMatchesTheParentBitForBit) {
  constexpr Case kCases[] = {
      // Mixed classes at a moderate load: full and partial windows.
      {"mixed", 2, 2, 4, 16, 16, 4, 256, 900, 150.0, {0.3, 0.3, 0.4},
       5'000, 0x252D'04D1'C45A'8D0Au, 0xF596'ED62'3EAF'8BB9u},
      // A hot add-heavy trace into short queues: full windows and shed
      // requests, no probe.
      {"shedding", 2, 2, 4, 16, 16, 4, 8, 700, 15.0, {0.05, 0.05, 0.9},
       0, 0x23C9'90B9'4816'A731u, 0xBB28'A1F7'6E0E'2E27u},
      // A 3 × 2 mesh with wider tiles and 8-slot farms, so partial add
      // windows leave tiles without a shard.
      {"wide", 3, 2, 8, 24, 24, 8, 64, 800, 300.0, {0.35, 0.35, 0.3},
       2'000, 0x43DF'081D'03CF'2FB0u, 0xA09F'A8AC'C434'50D2u},
      // Sparse traffic: nearly every window closes partial on the
      // timeout.
      {"sparse", 2, 1, 6, 20, 20, 3, 32, 300, 5'000.0, {0.3, 0.3, 0.4},
       50'000, 0xEE3F'1BA4'748C'6755u, 0xAE33'7ED7'20F3'8827u},
  };
  const TelemetryOn telemetry_on;
  bool saw_full = false, saw_partial = false, saw_shed = false;
  for (const Case& c : kCases) {
    TileFabricConfig fabric_cfg = testutil::small_fabric();
    fabric_cfg.width = c.mesh_width;
    fabric_cfg.height = c.mesh_height;
    fabric_cfg.tile.rows = c.rows;
    fabric_cfg.tile.row_bits = c.row_bits;
    TileFabric fabric(fabric_cfg);
    ServingConfig cfg = testutil::small_config();
    cfg.queue_capacity = c.queue_capacity;
    cfg.workload.add_width = c.add_width;
    cfg.workload.adders_per_tile = c.adders_per_tile;
    cfg.workload.cam.rows = c.rows;
    cfg.workload.cam.word_bits = c.row_bits;
    Rng rng(0x601D ^ c.rows);
    const std::size_t tiles = c.mesh_width * c.mesh_height;
    const auto kmer_db = random_words(tiles * c.rows, c.row_bits, rng);
    const auto cam_rows = random_words(tiles * c.rows - 1, c.row_bits, rng);
    WorkloadService svc(fabric, cfg, kmer_db, cam_rows);
    CounterProbe probe(c.probe_period);
    if (c.probe_period != 0) svc.set_probe(&probe);

    TraceParams params;
    params.seed = 0x5EED ^ c.requests;
    params.requests = c.requests;
    params.mean_interarrival_ns = c.mean_gap_ns;
    params.class_weights = c.weights;
    params.kmer_key_bits = c.row_bits;
    params.cam_key_bits = c.row_bits;
    params.add_width = c.add_width;
    std::vector<Request> trace = generate_trace(params);
    // Plant the first stored k-mer and CAM word so windows match rows.
    for (std::size_t i = 0; i < trace.size(); i += 7)
      if (trace[i].cls == RequestClass::kKmerQuery) trace[i].key = kmer_db[5];
      else if (trace[i].cls == RequestClass::kCamSearch)
        trace[i].key = cam_rows[3];

    const std::vector<std::uint64_t> counters_before = read_counters();
    const auto histograms_before = read_histograms();
    const ServiceRunResult result = svc.run(trace);
    const std::vector<std::uint64_t> counters_after = read_counters();
    const auto histograms_after = read_histograms();

    std::uint64_t telemetry = fnv1a(kFnvBasis, probe.hash());
    for (std::size_t i = 0; i < counters_after.size(); ++i)
      telemetry = fnv1a(telemetry, counters_after[i] - counters_before[i]);
    for (std::size_t i = 0; i < histograms_after.size(); ++i) {
      const std::vector<std::uint64_t>& after = histograms_after[i];
      const std::vector<std::uint64_t>& before = histograms_before[i];
      for (std::size_t k = 0; k < after.size(); ++k)
        telemetry = fnv1a(telemetry,
                          after[k] - (k < before.size() ? before[k] : 0));
    }

    const std::uint64_t run = hash_run(result, fabric.noc().stats());
    EXPECT_EQ(run, c.run) << c.name << ": run hash 0x" << std::hex << run;
    EXPECT_EQ(telemetry, c.telemetry)
        << c.name << ": telemetry hash 0x" << std::hex << telemetry;
    for (const Response& r : result.responses)
      (r.batch_lanes == kPackedLanes ? saw_full : saw_partial) = true;
    saw_shed = saw_shed || !result.shed.empty();
  }
  // The table covers full and partial windows and a queue that sheds.
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_shed);
}

}  // namespace
}  // namespace memcim::serving

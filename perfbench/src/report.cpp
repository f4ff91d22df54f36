// Result helpers shared by the workloads: host metrics, the span log
// writer and the printed per-layer table.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void add_host_metrics(Outcome& out, const HostSamples& host) {
  out.metric("host_items_per_s", median(host.items_per_s), "items/s");
  out.metric("setup_s", median(host.setup_s), "s");
  out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  std::ostringstream note;
  note << "host: " << host.items_per_s.size() << " timed repetitions; "
       << "items/s per repetition:";
  for (const double v : host.items_per_s) note << " " << static_cast<long long>(v);
  out.notes.push_back(note.str());
}

bool SpanLog::write(const std::string& path, const std::string& workload,
                    std::uint64_t seed) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"schema\": \"perfbench-spans-v1\", \"workload\": \"" << workload
    << "\", \"seed\": " << seed << ", \"clock\": \"host ns since run start\""
    << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"parent\": \"" << s.parent << "\", \"pass\": \"" << s.pass
      << "\", \"seq\": " << s.seq << ", \"start\": " << s.start_ns
      << ", \"end\": " << s.end_ns << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// The per-layer catalogue (METRICS.md; BENCHMARK.json "per_layer").
constexpr LayerMetricDef kLayerMetrics[] = {
    {"serving.run_ns", "ns"},
    {"serving.self_ns", "ns"},
    {"serving.batches", "count"},
    {"serving.partial_batch_share", "ratio"},
    {"serving.occupancy_lanes", "lanes"},
    {"serving.queue_wait_p50_ns", "ns"},
    {"serving.queue_wait_p99_ns", "ns"},
    {"serving.fabric_busy_share", "ratio"},
    {"serving.shed", "count"},
    {"dispatcher.calls.kmer", "count"},
    {"dispatcher.calls.cam", "count"},
    {"dispatcher.calls.add", "count"},
    {"dispatcher.execute_ns.kmer", "ns"},
    {"dispatcher.execute_ns.cam", "ns"},
    {"dispatcher.execute_ns.add", "ns"},
    {"dispatcher.execute_p50_ns", "ns"},
    {"dispatcher.execute_p99_ns", "ns"},
    {"dispatcher.execute_samples", "count"},
    {"dispatcher.self_ns", "ns"},
    {"arch.compare_calls", "count"},
    {"arch.compare_ns", "ns"},
    {"arch.compare_ns_per_row", "ns"},
    {"logic.cam_searches", "count"},
    {"logic.cam_ns", "ns"},
    {"logic.add_ops", "count"},
    {"logic.add_ns", "ns"},
    {"logic.add_ns_per_op", "ns"},
    {"logic.pulses", "count"},
    {"noc.sessions", "count"},
    {"noc.run_ns", "ns"},
    {"noc.cycles", "cycles"},
    {"noc.ns_per_cycle", "ns"},
    {"noc.flits", "count"},
    {"noc.flit_hops", "count"},
    {"noc.credit_stalls", "count"},
    {"noc.nic_wait_p99_cycles", "cycles"},
    {"noc.repeat_session_share", "ratio"},
    {"monitor.calls", "count"},
    {"monitor.ns", "ns"},
    {"monitor.intervals", "count"},
    {"isa.compile_ns", "ns"},
    {"workloads.sharded_add_ns", "ns"},
    {"workloads.sharded_search_ns", "ns"},
    {"workloads.self_ns", "ns"},
    {"pool.threads", "count"},
    {"pool.efficiency", "ratio"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void add_layer_metrics(Outcome& out, const LayerValues& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricDef& def : kLayerMetrics) known = known || name == def.name;
    if (!known) out.fail("per-layer metric " + name + " is not in the catalogue");
  }
  for (const LayerMetricDef& def : kLayerMetrics) {
    double value = 0.0;
    for (const auto& [name, v] : values)
      if (name == def.name) value = v;
    out.metric(def.name, value, def.unit);
  }
}

void print_layer_table(const std::vector<LayerRow>& rows, double base_ns,
                       const std::string& base_name) {
  std::printf("%-22s %10s %14s %14s %9s %9s\n", "layer", "calls", "total_ms",
              "self_ms", "total%", "self%");
  for (const LayerRow& r : rows) {
    const double total_pct = base_ns > 0.0 ? 100.0 * r.total_ns / base_ns : 0.0;
    const double self_pct = base_ns > 0.0 ? 100.0 * r.self_ns / base_ns : 0.0;
    std::printf("%-22s %10llu %14.3f %14.3f %8.2f%% %8.2f%%\n",
                r.layer.c_str(), static_cast<unsigned long long>(r.calls),
                r.total_ns / 1e6, r.self_ns / 1e6, total_pct, self_pct);
  }
  std::printf("(shares are of %s = %.3f ms)\n", base_name.c_str(),
              base_ns / 1e6);
  std::fflush(stdout);
}

}  // namespace perfbench

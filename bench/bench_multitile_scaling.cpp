// Multi-tile scaling bench: the TC-adder farm workload sharded over
// mesh fabrics from 1 to 64 tiles, with the host↔tile command traffic
// costed by the NoC co-simulation.  Parallel efficiency comes from the
// *simulated* fabric makespan — eff(T) = makespan(1) / (T · makespan(T))
// — so the number is machine-independent and CI-safe.
//
// Besides the interactive table it writes BENCH_multitile.json and
// enforces the scaling acceptance gate inline: the process exits
// non-zero when efficiency at 16 tiles drops below 0.7 or any sharded
// run's sums diverge from the single-tile baseline.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "common/parallel.h"
#include "common/table.h"
#include "device/presets.h"
#include "telemetry/attribution.h"
#include "workloads/sharded.h"

namespace {

using namespace memcim;

constexpr std::uint64_t kSeed = 0x5CA1E;
constexpr double kMinEfficiencyAt16 = 0.7;

ParallelAddParams add_params() {
  ParallelAddParams p;
  p.operations = 16384;
  p.width = 32;
  p.adders = 64;  // per-tile farm; batch-aligned sharding keeps slots
  return p;
}

TileFabricConfig fabric_config(std::size_t width, std::size_t height) {
  TileFabricConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.tile.rows = 4;
  cfg.tile.row_bits = 8;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

struct ScalePoint {
  std::size_t width = 0;
  std::size_t height = 0;
  std::size_t tiles = 0;
  ShardedAddResult result;
  double speedup = 0.0;     ///< makespan(1) / makespan(T)
  double efficiency = 0.0;  ///< speedup / T
};

/// Run the sweep; every configuration re-draws the identical operand
/// stream, so sums must match the 1×1 baseline bit-for-bit.
std::vector<ScalePoint> run_sweep() {
  const std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}};
  std::vector<ScalePoint> points;
  for (const auto& [w, h] : grids) {
    TileFabric fabric(fabric_config(w, h));
    Rng rng(kSeed);
    ScalePoint pt;
    pt.width = w;
    pt.height = h;
    pt.tiles = w * h;
    pt.result = sharded_parallel_add(fabric, add_params(), presets::crs_cell(),
                                     rng);
    points.push_back(std::move(pt));
  }
  const double base = static_cast<double>(points.front().result.run.makespan);
  for (ScalePoint& pt : points) {
    pt.speedup = base / static_cast<double>(pt.result.run.makespan);
    pt.efficiency = pt.speedup / static_cast<double>(pt.tiles);
  }
  return points;
}

void print_sweep(const std::vector<ScalePoint>& points) {
  TextTable t({"grid", "tiles", "makespan (cyc)", "latency (us)", "speedup",
               "efficiency", "flits", "hops", "fabric util"});
  for (const ScalePoint& pt : points) {
    const ShardedRunStats& run = pt.result.run;
    t.add_row({std::to_string(pt.width) + "x" + std::to_string(pt.height),
               std::to_string(pt.tiles), std::to_string(run.makespan),
               fixed_string(run.latency.value() * 1e6, 3),
               fixed_string(pt.speedup, 2), fixed_string(pt.efficiency, 3),
               std::to_string(run.flits), std::to_string(run.flit_hops),
               fixed_string(run.fabric_utilization, 3)});
  }
  std::cout << t.to_text() << '\n';
}

void write_json(const std::vector<ScalePoint>& points, double eff16,
                bool pass) {
  telemetry::JsonWriter w;
  bench::begin_bench_json(w, "multitile_scaling");
  w.key("seed").value(kSeed);
  const ParallelAddParams p = add_params();
  w.key("workload").begin_object();
  w.key("kind").value("sharded_parallel_add");
  w.key("operations").value(static_cast<std::uint64_t>(p.operations));
  w.key("width_bits").value(static_cast<std::uint64_t>(p.width));
  w.key("adders_per_tile").value(static_cast<std::uint64_t>(p.adders));
  w.end_object();
  w.key("sweep").begin_array();
  for (const ScalePoint& pt : points) {
    const ShardedRunStats& run = pt.result.run;
    w.begin_object();
    w.key("grid_width").value(static_cast<std::uint64_t>(pt.width));
    w.key("grid_height").value(static_cast<std::uint64_t>(pt.height));
    w.key("tiles").value(static_cast<std::uint64_t>(pt.tiles));
    w.key("makespan_cycles").value(run.makespan);
    w.key("latency_s").value(run.latency.value());
    w.key("compute_energy_j").value(run.compute_energy.value());
    w.key("noc_energy_j").value(run.noc_energy.value());
    w.key("flits").value(run.flits);
    w.key("flit_hops").value(run.flit_hops);
    w.key("fabric_utilization").value(run.fabric_utilization);
    w.key("speedup").value(pt.speedup);
    w.key("efficiency").value(pt.efficiency);
    w.end_object();
  }
  w.end_array();
  w.key("acceptance").begin_object();
  w.key("min_efficiency_16").value(kMinEfficiencyAt16);
  w.key("efficiency_16").value(eff16);
  w.key("pass").value(pass);
  w.end_object();
  bench::write_bench_json(w, "multitile");
}

/// The scaling acceptance: sums identical to the baseline everywhere,
/// zero mismatches, and ≥ 0.7 parallel efficiency at 16 tiles.
int check_acceptance(const std::vector<ScalePoint>& points, double* eff16) {
  int failures = 0;
  const std::vector<std::uint64_t>& golden = points.front().result.merged.sums;
  *eff16 = 0.0;
  for (const ScalePoint& pt : points) {
    if (pt.result.merged.sums != golden) {
      std::cerr << "ACCEPTANCE FAIL: sharded sums diverge at " << pt.tiles
                << " tiles\n";
      ++failures;
    }
    if (pt.result.merged.mismatches != 0) {
      std::cerr << "ACCEPTANCE FAIL: " << pt.result.merged.mismatches
                << " adder mismatches at " << pt.tiles << " tiles\n";
      ++failures;
    }
    if (pt.tiles == 16) *eff16 = pt.efficiency;
  }
  if (*eff16 < kMinEfficiencyAt16) {
    std::cerr << "ACCEPTANCE FAIL: efficiency at 16 tiles " << *eff16
              << " < " << kMinEfficiencyAt16 << "\n";
    ++failures;
  }
  return failures;
}

void BM_ShardedAdd(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  ParallelAddParams p = add_params();
  p.operations = 4096;
  for (auto _ : state) {
    TileFabric fabric(fabric_config(side, side));
    Rng rng(kSeed);
    benchmark::DoNotOptimize(
        sharded_parallel_add(fabric, p, presets::crs_cell(), rng));
  }
}
BENCHMARK(BM_ShardedAdd)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Multi-tile CIM fabric scaling (sharded adder farm) ===\n"
            << "thread pool: " << parallel_threads()
            << " workers (override with MEMCIM_THREADS)\n\n";

  // A clean attribution book over exactly the sweep's runs, exported
  // for `memcim-report attribution` (per-layer/tile/shard breakdown).
  telemetry::AttributionBook::global().reset();
  const std::vector<ScalePoint> points = run_sweep();
  print_sweep(points);
  telemetry::write_attribution_json("ATTR_multitile.json");
  std::cout << "Wrote ATTR_multitile.json\n\n";

  double eff16 = 0.0;
  const int failures = check_acceptance(points, &eff16);
  write_json(points, eff16, failures == 0);
  if (failures > 0) {
    std::cerr << failures << " acceptance violation(s)\n";
    return 1;
  }
  std::cout << "Acceptance: sums bitwise-stable across shardings, "
            << "efficiency at 16 tiles = " << fixed_string(eff16, 3) << " >= "
            << kMinEfficiencyAt16 << "\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

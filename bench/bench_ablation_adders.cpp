// Ablation: memristive adder architectures vs bit width.
//
//   * naive IMPLY ripple adder (gate-level, 43 steps/bit, ~17 regs/bit),
//   * CRS TC-adder (4N+5 steps, N+2 devices — the paper's Table 1 pick),
//   * conventional CLA (252 ps, 208 gates) as the CMOS reference.
//
// The series shows why Table 1 budgets the TC-adder: an order of
// magnitude fewer steps and devices than gate-synthesized IMPLY.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.h"
#include "common/rng.h"
#include "common/table.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/ideal_fabric.h"
#include "logic/packed_adder.h"

namespace {

using namespace memcim;

void print_comparison(telemetry::JsonWriter& w) {
  TextTable t({"Width", "IMPLY steps", "IMPLY regs", "TC steps",
               "TC devices", "TC latency", "IMPLY latency", "speedup"});
  w.key("architectures").begin_array();
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const std::size_t imply_steps = ripple_adder_steps(n);
    const std::size_t imply_regs = cost_full_adder().registers * n + 1;
    const std::size_t tc_steps = PackedTcAdderFarm::steps(n);
    const double tc_latency = static_cast<double>(tc_steps) * 200e-12;
    const double imply_latency = static_cast<double>(imply_steps) * 200e-12;
    t.add_row({std::to_string(n), std::to_string(imply_steps),
               std::to_string(imply_regs), std::to_string(tc_steps),
               std::to_string(PackedTcAdderFarm::devices(n)),
               si_string(tc_latency, "s"), si_string(imply_latency, "s"),
               fixed_string(imply_latency / tc_latency, 2) + "x"});
    w.begin_object();
    w.key("width").value(static_cast<std::uint64_t>(n));
    w.key("imply_steps").value(static_cast<std::uint64_t>(imply_steps));
    w.key("imply_registers").value(static_cast<std::uint64_t>(imply_regs));
    w.key("tc_steps").value(static_cast<std::uint64_t>(tc_steps));
    w.key("tc_devices").value(static_cast<std::uint64_t>(PackedTcAdderFarm::devices(n)));
    w.key("tc_latency_s").value(tc_latency);
    w.key("imply_latency_s").value(imply_latency);
    w.end_object();
  }
  w.end_array();
  std::cout << t.to_text() << '\n'
            << "CMOS CLA reference: 252 ps, 208 gates (Table 1) — faster\n"
               "per op, but volatile, leaky and kept fed through caches;\n"
               "Table 2 shows the system-level reversal.\n\n";
}

void print_energy_measured(telemetry::JsonWriter& w) {
  TextTable t({"Width", "measured energy/add (CRS switching)",
               "Table 1 budget (8 ops/bit x 1 fJ)"});
  Rng rng(5);
  w.key("measured_energy").begin_array();
  for (std::size_t n : {8u, 16u, 32u}) {
    PackedTcAdderFarm adder(1, n, presets::crs_cell());
    Energy total{0.0};
    const int trials = 50;
    for (int i = 0; i < trials; ++i) {
      const auto a = static_cast<std::uint64_t>(
          rng.uniform_int(0, (1LL << n) - 1));
      const auto b = static_cast<std::uint64_t>(
          rng.uniform_int(0, (1LL << n) - 1));
      total += Energy(adder.run({a}, {b}).energies.front());
    }
    t.add_row({std::to_string(n),
               si_string(total.value() / trials, "J"),
               si_string(8.0 * static_cast<double>(n) * 1e-15, "J")});
    w.begin_object();
    w.key("width").value(static_cast<std::uint64_t>(n));
    w.key("energy_per_add_j").value(total.value() / trials);
    w.key("table1_budget_j").value(8.0 * static_cast<double>(n) * 1e-15);
    w.end_object();
  }
  w.end_array();
  std::cout << t.to_text() << '\n'
            << "Measured switching energy counts only real transitions, so\n"
               "it lands below the paper's every-op-pays budget.\n\n";
}

void BM_ImplyRippleAdd(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    IdealFabric f;
    benchmark::DoNotOptimize(add_integers(f, 12345, 54321, width));
  }
}
BENCHMARK(BM_ImplyRippleAdd)->Arg(8)->Arg(32);

void BM_TcAdd(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  PackedTcAdderFarm adder(1, width, memcim::presets::crs_cell());
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const std::vector<std::uint64_t> a{12345 & mask}, b{54321 & mask};
  for (auto _ : state) {
    benchmark::DoNotOptimize(adder.run(a, b));
  }
}
BENCHMARK(BM_TcAdd)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Ablation: adder architectures ===\n\n";
  telemetry::JsonWriter w;
  bench::begin_bench_json(w, "ablation_adders");
  print_comparison(w);
  print_energy_measured(w);
  bench::write_bench_json(w, "ablation_adders");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

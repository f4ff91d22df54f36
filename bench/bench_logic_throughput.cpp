// Logic-engine throughput bench: quantifies what the packed (bit-
// sliced) execution engine buys over the scalar replay paths and guards
// the speedup in CI.
//
// Three measurements, written to BENCH_logic.json:
//
//  1. Program engine — the paper's 10^6-parallel-addition workload as a
//     recorded 32-bit IMPLY ripple-adder program replayed across 10^6
//     register windows on a single thread: run_program_simd on
//     IdealFabric (measured on a subsample and extrapolated) vs
//     run_program_packed over the full batch.  Acceptance: >= 10x.
//  2. Packed adder farm — run_parallel_add on the compiled TC-adder
//     fast path at MEMCIM_THREADS 1 and 4 (thread-pool scaling of the
//     lane-block fan-out).
//  3. DNA-flavoured CAM sweep — CrsCam's bit-sliced search vs the
//     scalar row walk of the CellGridCam test oracle (one CrsCell per
//     stored bit, tests/support/) on a 2048-row, 24-bit (k=12 bases)
//     ternary table.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "bench_json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/cam.h"
#include "logic/ideal_fabric.h"
#include "logic/packed.h"
#include "logic/program.h"
#include "support/cell_grid_cam.h"
#include "telemetry/json_writer.h"
#include "workloads/parallel_add.h"

namespace {

using namespace memcim;

[[nodiscard]] std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] CimProgram recorded_adder(std::size_t bits) {
  return record_program(2 * bits, [&](Fabric& f, const std::vector<Reg>& in) {
    const std::span<const Reg> a(in.data(), bits);
    const std::span<const Reg> b(in.data() + bits, bits);
    return ripple_adder(f, a, b).carry_out;
  });
}

[[nodiscard]] std::vector<std::vector<bool>> random_windows(
    std::size_t inputs, std::size_t count, Rng& rng) {
  std::vector<std::vector<bool>> windows(count);
  for (auto& w : windows) {
    w.resize(inputs);
    for (std::size_t i = 0; i < inputs; ++i) w[i] = rng.bernoulli(0.5);
  }
  return windows;
}

constexpr std::size_t kAddBits = 32;
constexpr std::size_t kWindows = 1'000'000;  // paper: 10^6 parallel adds
constexpr std::size_t kScalarSample = 32'768;
constexpr double kSpeedupThreshold = 10.0;

struct ProgramEngineReport {
  std::uint64_t instructions = 0;
  double scalar_sample_ns = 0.0;
  double scalar_extrapolated_ns = 0.0;
  double packed_ns = 0.0;
  double speedup = 0.0;
  bool outputs_match = false;
  bool pass = false;
};

ProgramEngineReport measure_program_engine() {
  ProgramEngineReport rep;
  const CimProgram program = recorded_adder(kAddBits);
  rep.instructions = program.instructions.size();
  Rng rng(0x10610);
  const auto windows = random_windows(program.inputs, kWindows, rng);
  const std::vector<std::vector<bool>> sample(
      windows.begin(), windows.begin() + kScalarSample);

  // Single thread: the acceptance criterion isolates the engine, not
  // the pool.
  set_parallel_threads(1);

  IdealFabric fabric;
  const std::uint64_t s0 = steady_ns();
  const SimdRunResult scalar = run_program_simd(program, fabric, sample);
  const std::uint64_t s1 = steady_ns();
  rep.scalar_sample_ns = static_cast<double>(s1 - s0);
  rep.scalar_extrapolated_ns = rep.scalar_sample_ns *
                               static_cast<double>(kWindows) /
                               static_cast<double>(kScalarSample);

  const PackedProgram compiled = compile_program(program);
  const std::uint64_t p0 = steady_ns();
  const PackedRunResult packed = run_program_packed(compiled, windows);
  const std::uint64_t p1 = steady_ns();
  rep.packed_ns = static_cast<double>(p1 - p0);

  rep.outputs_match = true;
  for (std::size_t w = 0; w < kScalarSample; ++w)
    if (packed.outputs[w] != scalar.outputs[w]) rep.outputs_match = false;

  rep.speedup = rep.scalar_extrapolated_ns / rep.packed_ns;
  rep.pass = rep.outputs_match && rep.speedup >= kSpeedupThreshold;
  set_parallel_threads(0);
  return rep;
}

struct FarmScalingPoint {
  std::size_t threads = 0;
  double ns = 0.0;
  double ops_per_s = 0.0;
  std::uint64_t mismatches = 0;
};

FarmScalingPoint measure_farm(std::size_t threads) {
  set_parallel_threads(threads);
  ParallelAddParams params;
  params.operations = 200'000;
  params.width = 32;
  params.adders = 1024;
  Rng rng(0xFA2);
  const std::uint64_t t0 = steady_ns();
  const ParallelAddResult result =
      run_parallel_add(params, presets::crs_cell(), rng);
  const std::uint64_t t1 = steady_ns();
  FarmScalingPoint point;
  point.threads = parallel_threads();
  point.ns = static_cast<double>(t1 - t0);
  point.ops_per_s =
      static_cast<double>(params.operations) / (point.ns * 1e-9);
  point.mismatches = result.mismatches;
  set_parallel_threads(0);
  return point;
}

struct CamSweepReport {
  std::size_t rows = 0;
  std::size_t word_bits = 0;
  std::size_t searches = 0;
  double scalar_ns = 0.0;
  double packed_ns = 0.0;
  double speedup = 0.0;
  bool matches_agree = false;
};

CamSweepReport measure_cam_sweep() {
  CamSweepReport rep;
  rep.rows = 2048;
  rep.word_bits = 24;  // k = 12 bases, 2 bits per base
  rep.searches = 20'000;

  CamConfig config;
  config.rows = rep.rows;
  config.word_bits = rep.word_bits;
  config.cell = presets::crs_cell();
  CrsCam packed(config);
  CellGridCam scalar(config);

  Rng fill(0xD9A);
  for (std::size_t row = 0; row < rep.rows; ++row) {
    std::vector<CamBit> word(rep.word_bits);
    for (auto& b : word) {
      const double roll = fill.uniform();
      b = roll < 0.1 ? CamBit::kDontCare
                     : (roll < 0.55 ? CamBit::kZero : CamBit::kOne);
    }
    packed.write_row_ternary(row, word);
    scalar.write_row_ternary(row, word);
  }

  Rng key_rng(0x4E75);
  std::vector<std::vector<bool>> keys(rep.searches);
  for (auto& key : keys) {
    key.resize(rep.word_bits);
    for (std::size_t i = 0; i < rep.word_bits; ++i)
      key[i] = key_rng.bernoulli(0.5);
  }

  std::uint64_t packed_hits = 0, scalar_hits = 0;
  const std::uint64_t p0 = steady_ns();
  for (const auto& key : keys) packed_hits += packed.search(key).matching_rows.size();
  const std::uint64_t p1 = steady_ns();
  const std::uint64_t s0 = steady_ns();
  for (const auto& key : keys) scalar_hits += scalar.search(key).matching_rows.size();
  const std::uint64_t s1 = steady_ns();

  rep.packed_ns = static_cast<double>(p1 - p0);
  rep.scalar_ns = static_cast<double>(s1 - s0);
  rep.speedup = rep.scalar_ns / rep.packed_ns;
  rep.matches_agree = packed_hits == scalar_hits &&
                      packed.total_energy().value() ==
                          scalar.total_energy().value();
  return rep;
}

void write_report(const ProgramEngineReport& engine,
                  const std::vector<FarmScalingPoint>& farm,
                  const CamSweepReport& cam) {
  telemetry::JsonWriter w;
  bench::begin_bench_json(w, "logic_throughput");
  w.key("program_engine").begin_object();
  w.key("workload").value("ripple_add_32bit_imply");
  w.key("windows").value(static_cast<std::uint64_t>(kWindows));
  w.key("instructions_per_window").value(engine.instructions);
  w.key("scalar_windows_measured")
      .value(static_cast<std::uint64_t>(kScalarSample));
  w.key("scalar_sample_ns").value(engine.scalar_sample_ns);
  w.key("scalar_extrapolated_ns").value(engine.scalar_extrapolated_ns);
  w.key("packed_ns").value(engine.packed_ns);
  w.key("speedup").value(engine.speedup);
  w.key("outputs_match").value(engine.outputs_match);
  w.key("threshold").value(kSpeedupThreshold);
  w.key("pass").value(engine.pass);
  w.end_object();
  w.key("packed_adder_scaling").begin_array();
  for (const FarmScalingPoint& point : farm) {
    w.begin_object();
    w.key("threads").value(static_cast<std::uint64_t>(point.threads));
    w.key("ns").value(point.ns);
    w.key("ops_per_s").value(point.ops_per_s);
    w.key("mismatches").value(point.mismatches);
    w.end_object();
  }
  w.end_array();
  w.key("cam_sweep").begin_object();
  w.key("rows").value(static_cast<std::uint64_t>(cam.rows));
  w.key("word_bits").value(static_cast<std::uint64_t>(cam.word_bits));
  w.key("searches").value(static_cast<std::uint64_t>(cam.searches));
  w.key("scalar_ns").value(cam.scalar_ns);
  w.key("packed_ns").value(cam.packed_ns);
  w.key("speedup").value(cam.speedup);
  w.key("matches_agree").value(cam.matches_agree);
  w.end_object();
  w.end_object();
  std::ofstream("BENCH_logic.json") << w.str();
}

// --- google-benchmark micro-benches ----------------------------------------

void BM_PackedReplayAdd8(benchmark::State& state) {
  const CimProgram program = recorded_adder(8);
  const PackedProgram compiled = compile_program(program);
  Rng rng(0x8ADD);
  const auto windows = random_windows(program.inputs, 64, rng);
  for (auto _ : state) {
    const PackedRunResult r = run_program_packed(compiled, windows);
    benchmark::DoNotOptimize(r.writes);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PackedReplayAdd8);

void BM_ScalarReplayAdd8(benchmark::State& state) {
  const CimProgram program = recorded_adder(8);
  Rng rng(0x8ADD);
  const auto windows = random_windows(program.inputs, 64, rng);
  for (auto _ : state) {
    IdealFabric fabric;
    const SimdRunResult r = run_program_simd(program, fabric, windows);
    benchmark::DoNotOptimize(r.writes);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ScalarReplayAdd8);

/// Arg 0: the CellGridCam oracle's scalar row walk; arg 1: CrsCam.
void BM_CamSearch(benchmark::State& state) {
  CamConfig config;
  config.rows = 512;
  config.word_bits = 24;
  config.cell = presets::crs_cell();
  const auto run = [&](auto& cam) {
    Rng rng(0xCA4);
    for (std::size_t row = 0; row < config.rows; ++row) {
      std::vector<bool> word(config.word_bits);
      for (std::size_t i = 0; i < config.word_bits; ++i)
        word[i] = rng.bernoulli(0.5);
      cam.write_row(row, word);
    }
    std::vector<bool> key(config.word_bits);
    for (std::size_t i = 0; i < config.word_bits; ++i)
      key[i] = rng.bernoulli(0.5);
    for (auto _ : state) {
      const CamSearchResult r = cam.search(key);
      benchmark::DoNotOptimize(r.matching_rows.data());
    }
  };
  if (state.range(0) == 0) {
    CellGridCam cam(config);
    run(cam);
  } else {
    CrsCam cam(config);
    run(cam);
  }
}
BENCHMARK(BM_CamSearch)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Logic engine throughput bench ===\n\n";

  const ProgramEngineReport engine = measure_program_engine();
  std::cout << "program engine (32-bit add, " << kWindows
            << " windows, 1 thread):\n"
            << "  scalar  " << engine.scalar_extrapolated_ns / 1e6
            << " ms (extrapolated from " << kScalarSample << " windows)\n"
            << "  packed  " << engine.packed_ns / 1e6 << " ms\n"
            << "  speedup " << engine.speedup << "x (threshold "
            << kSpeedupThreshold << "x, outputs "
            << (engine.outputs_match ? "match" : "MISMATCH") << ")\n\n";

  std::vector<FarmScalingPoint> farm;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    farm.push_back(measure_farm(threads));
    std::cout << "packed adder farm, " << farm.back().threads
              << " thread(s): " << farm.back().ns / 1e6 << " ms ("
              << farm.back().ops_per_s / 1e6 << " M adds/s, "
              << farm.back().mismatches << " mismatches)\n";
  }
  std::cout << "\n";

  const CamSweepReport cam = measure_cam_sweep();
  std::cout << "CAM sweep (" << cam.rows << " rows x " << cam.word_bits
            << " bits, " << cam.searches << " searches): scalar "
            << cam.scalar_ns / 1e6 << " ms, packed " << cam.packed_ns / 1e6
            << " ms, speedup " << cam.speedup << "x, matches "
            << (cam.matches_agree ? "agree" : "DISAGREE") << "\n\n";

  write_report(engine, farm, cam);
  std::cout << "Wrote BENCH_logic.json\n\n";

  bool ok = engine.pass && cam.matches_agree;
  for (const FarmScalingPoint& point : farm) ok = ok && point.mismatches == 0;
  if (!ok) {
    std::cerr << "FAIL: packed engine acceptance (speedup >= "
              << kSpeedupThreshold << "x, outputs match, 0 mismatches)\n";
    return 1;
  }
  std::cout << "Acceptance: packed speedup " << engine.speedup << "x >= "
            << kSpeedupThreshold << "x with bitwise-identical results.\n\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

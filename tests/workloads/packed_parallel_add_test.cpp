// Differential suite for the packed parallel-add engine: the compiled
// lane-block fast path must reproduce the scalar CrsTcAdder farm
// bitwise — sums, pulses, energy, latency, telemetry tallies — at any
// thread count, and must fall back to the scalar farm whenever fault
// hooks are armed.  An armed hook is the only thing that selects the
// scalar farm, so the scalar side of every differential here is a run
// with a benign (no-op) hook, as the fault campaign's rate-0 row is.
#include "workloads/parallel_add.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

using telemetry::Registry;

struct EnvGuard {
  ~EnvGuard() {
    telemetry::set_enabled(true);
    set_parallel_threads(0);
  }
};

/// Deterministic counter slice: everything except pool scheduling noise
/// (parallel.*) and wall-clock span durations (*.ns).
std::map<std::string, std::uint64_t> deterministic_counters() {
  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const telemetry::CounterSample& c : snap.counters) {
    if (c.name.rfind("parallel.", 0) == 0) continue;
    if (c.name.size() >= 3 && c.name.rfind(".ns") == c.name.size() - 3)
      continue;
    out[c.name] = c.value;
  }
  return out;
}

/// Drop the packed-engine bookkeeping extras so scalar-vs-packed tally
/// comparisons only see the device/workload books both engines share.
std::map<std::string, std::uint64_t> shared_counters(
    std::map<std::string, std::uint64_t> counters) {
  std::erase_if(counters, [](const auto& kv) {
    return kv.first.rfind("logic.packed.", 0) == 0;
  });
  return counters;
}

struct EngineRun {
  ParallelAddResult result;
  std::map<std::string, std::uint64_t> counters;
};

enum class Farm { kPacked, kScalar };

EngineRun run_engine(std::size_t ops, std::size_t width, std::size_t adders,
                     Farm farm, std::uint64_t seed) {
  Registry::global().reset();
  ParallelAddParams params;
  params.operations = ops;
  params.width = width;
  params.adders = adders;
  // Armed but benign: selects the scalar farm and leaves it untouched.
  if (farm == Farm::kScalar)
    params.farm_hook = [](std::vector<CrsTcAdder>&) {};
  Rng rng(seed);
  EngineRun run;
  run.result = run_parallel_add(params, presets::crs_cell(), rng);
  run.counters = deterministic_counters();
  return run;
}

void expect_bitwise_equal(const ParallelAddResult& a,
                          const ParallelAddResult& b) {
  EXPECT_EQ(a.sums, b.sums);
  EXPECT_EQ(a.total_pulses, b.total_pulses);
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_EQ(a.latency.value(), b.latency.value());
  EXPECT_EQ(a.mismatches, b.mismatches);
}

TEST(PackedParallelAdd, BitwiseMatchesScalarAcrossShapes) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  const struct {
    std::size_t ops, width, adders;
  } shapes[] = {
      {96, 12, 16},    // multiple full batches, sub-block farm
      {130, 1, 20},    // 1-bit adders, ragged final batch
      {257, 33, 64},   // farm exactly one lane block wide
      {300, 63, 130},  // farm spanning three (partial) lane blocks
      {50, 8, 64},     // single partial batch: ops < adders
  };
  std::uint64_t seed = 0xADD5;
  for (const auto& s : shapes) {
    const EngineRun scalar =
        run_engine(s.ops, s.width, s.adders, Farm::kScalar, seed);
    const EngineRun packed =
        run_engine(s.ops, s.width, s.adders, Farm::kPacked, seed);
    EXPECT_FALSE(scalar.result.used_packed_engine);
    EXPECT_TRUE(packed.result.used_packed_engine);
    EXPECT_EQ(packed.result.mismatches, 0u);
    expect_bitwise_equal(scalar.result, packed.result);
    EXPECT_EQ(shared_counters(scalar.counters),
              shared_counters(packed.counters));
    EXPECT_GT(packed.counters.at("crs_cell.transitions"), 0u);
    EXPECT_GT(packed.counters.at("crs_cell.switch_energy_aj"), 0u);
    ++seed;
  }
}

TEST(PackedParallelAdd, ThreadCountInvariance) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  set_parallel_threads(1);
  const EngineRun one = run_engine(500, 24, 96, Farm::kPacked, 0x7E4D);
  set_parallel_threads(4);
  const EngineRun four = run_engine(500, 24, 96, Farm::kPacked, 0x7E4D);
  EXPECT_TRUE(one.result.used_packed_engine);
  EXPECT_TRUE(four.result.used_packed_engine);
  expect_bitwise_equal(one.result, four.result);
  EXPECT_EQ(one.counters, four.counters);
}

TEST(PackedParallelAdd, ArmedHooksForceScalarFallback) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  const EngineRun hooked = run_engine(64, 10, 16, Farm::kScalar, 0xFA11);
  EXPECT_FALSE(hooked.result.used_packed_engine);
  EXPECT_EQ(hooked.counters.at("logic.packed.adder_fallbacks"), 1u);

  // A benign hook leaves the farm untouched, so the fallback run must
  // equal the packed run with the same seed.
  const EngineRun packed = run_engine(64, 10, 16, Farm::kPacked, 0xFA11);
  EXPECT_TRUE(packed.result.used_packed_engine);
  expect_bitwise_equal(hooked.result, packed.result);
}

TEST(PackedParallelAdd, EngineSelectionReported) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  const EngineRun a = run_engine(32, 16, 8, Farm::kPacked, 0x5E1);
  EXPECT_TRUE(a.result.used_packed_engine);
  // Registered by other tests but must stay zero on a clean packed run.
  const auto fallbacks = a.counters.find("logic.packed.adder_fallbacks");
  EXPECT_EQ(fallbacks == a.counters.end() ? 0u : fallbacks->second, 0u);
  const EngineRun s = run_engine(32, 16, 8, Farm::kScalar, 0x5E1);
  EXPECT_FALSE(s.result.used_packed_engine);
}

TEST(PackedParallelAdd, DisabledTelemetryBooksNothing) {
  EnvGuard guard;
  telemetry::set_enabled(false);
  Registry::global().reset();
  ParallelAddParams params;
  params.operations = 64;
  params.width = 16;
  params.adders = 16;
  Rng rng(0x0FF);
  const ParallelAddResult result =
      run_parallel_add(params, presets::crs_cell(), rng);
  EXPECT_TRUE(result.used_packed_engine);
  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  for (const telemetry::CounterSample& c : snap.counters)
    EXPECT_EQ(c.value, 0u) << c.name;
}

}  // namespace
}  // namespace memcim

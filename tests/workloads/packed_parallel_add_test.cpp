// Differential suite for run_parallel_add_ops on the TC-adder farm
// (PackedTcAdderFarm): it must reproduce walk_parallel_add_ops, the same
// batch on a farm of pulse-walked CrsTcAdders (tests/support/), bitwise
// — sums, pulses, energy, latency, mismatches, transitions, per-op
// energy and the crs_cell.* tallies — with and without stuck cells
// pinned through farm_hook, and at any thread count.
#include "workloads/parallel_add.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "fault/campaign.h"
#include "fault/crossbar_faults.h"
#include "support/adder_farm_walk.h"
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

/// The crs_cell.* slice, the books the farm and the walked cells share.
std::map<std::string, std::uint64_t> cell_counters() {
  std::map<std::string, std::uint64_t> counters = deterministic_counters();
  std::erase_if(counters, [](const auto& kv) {
    return kv.first.rfind("crs_cell.", 0) != 0;
  });
  return counters;
}

ParallelAddParams shape(std::size_t ops, std::size_t width,
                        std::size_t adders) {
  ParallelAddParams params;
  params.operations = ops;
  params.width = width;
  params.adders = adders;
  params.record_per_op = true;
  return params;
}

/// Operands drawn as run_parallel_add draws them.
struct Operands {
  std::vector<std::uint64_t> a, b;
};

Operands draw(const ParallelAddParams& params, std::uint64_t seed) {
  const auto max = static_cast<std::int64_t>(
      (std::uint64_t{1} << params.width) - 1);
  Rng rng(seed);
  Operands ops;
  for (std::size_t op = 0; op < params.operations; ++op) {
    ops.a.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, max)));
    ops.b.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, max)));
  }
  return ops;
}

struct Books {
  ParallelAddResult result;
  std::map<std::string, std::uint64_t> counters;
};

/// The production run and the oracle walk of one batch, each with its
/// own crs_cell.* books.
struct Pair {
  Books farm, walk;
};

Pair run_both(const ParallelAddParams& params, const Operands& ops,
              const std::function<void(CrsTcAdderFarm&)>& pin = {}) {
  const CrsCellParams cell = presets::crs_cell();
  Pair pair;
  Registry::global().reset();
  pair.farm.result = run_parallel_add_ops(params, cell, ops.a, ops.b);
  pair.farm.counters = cell_counters();
  Registry::global().reset();
  pair.walk.result = walk_parallel_add_ops(params, cell, ops.a, ops.b, pin);
  pair.walk.counters = cell_counters();
  return pair;
}

void expect_bitwise_equal(const ParallelAddResult& a,
                          const ParallelAddResult& b) {
  EXPECT_EQ(a.sums, b.sums);
  EXPECT_EQ(a.total_pulses, b.total_pulses);
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_EQ(a.latency.value(), b.latency.value());
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.op_energy, b.op_energy);
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
    const ParallelAddParams params = shape(s.ops, s.width, s.adders);
    const Pair pair = run_both(params, draw(params, seed));
    EXPECT_EQ(pair.farm.result.mismatches, 0u);
    expect_bitwise_equal(pair.farm.result, pair.walk.result);
    EXPECT_EQ(pair.farm.counters, pair.walk.counters);
    EXPECT_GT(pair.farm.counters.at("crs_cell.transitions"), 0u);
    EXPECT_GT(pair.farm.counters.at("crs_cell.switch_energy_aj"), 0u);
    ++seed;
  }
}

TEST(PackedParallelAdd, ArmedHookMatchesOracleAtCampaignRates) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  // The parallel-add fault campaign's own shape and rates.
  const CampaignConfig config;
  const ParallelAddParams base =
      shape(config.add_ops, config.add_width, config.add_adders);
  const std::size_t sites = config.add_adders * (config.add_width + 2);
  std::uint64_t faulty_runs = 0;
  for (const double rate : config.rates) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "rate " << rate << ", seed "
                                        << seed);
      const FaultPlan plan = FaultPlan::draw(
          sites, seed, {{FaultKind::kStuckAtLrs, rate / 2.0, 1.0, 0.0},
                        {FaultKind::kStuckAtHrs, rate / 2.0, 1.0, 0.0}});
      ParallelAddParams params = base;
      params.farm_hook = [&plan](PackedTcAdderFarm& farm) {
        (void)apply_fault_plan(farm, plan);
      };
      const Pair pair = run_both(
          params, draw(params, 0xFA23 + seed), [&plan](CrsTcAdderFarm& farm) {
            for (const ArmedFault& f : plan.armed())
              farm.inject_stuck(f.site, f.kind == FaultKind::kStuckAtLrs);
          });
      expect_bitwise_equal(pair.farm.result, pair.walk.result);
      EXPECT_EQ(pair.farm.counters, pair.walk.counters);
      if (pair.farm.result.mismatches != 0) ++faulty_runs;
      if (rate == 0.0) {
        EXPECT_EQ(pair.farm.result.mismatches, 0u);
      }
    }
  }
  EXPECT_GT(faulty_runs, 0u);  // the faults really bite
}

TEST(PackedParallelAdd, ThreadCountInvariance) {
  EnvGuard guard;
  telemetry::set_enabled(true);
  const ParallelAddParams params = shape(500, 24, 96);
  const Operands ops = draw(params, 0x7E4D);
  auto run = [&](std::size_t threads) {
    set_parallel_threads(threads);
    Registry::global().reset();
    Books r;
    r.result =
        run_parallel_add_ops(params, presets::crs_cell(), ops.a, ops.b);
    r.counters = deterministic_counters();
    return r;
  };
  const Books one = run(1);
  const Books four = run(4);
  expect_bitwise_equal(one.result, four.result);
  EXPECT_EQ(one.counters, four.counters);
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
  EXPECT_EQ(result.mismatches, 0u);
  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  for (const telemetry::CounterSample& c : snap.counters)
    EXPECT_EQ(c.value, 0u) << c.name;
}

}  // namespace
}  // namespace memcim

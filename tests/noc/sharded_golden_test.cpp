// Shard/merge round-trip equality: every sharded workload must
// reproduce its single-tile golden run — for the TC-adder farm
// bitwise in every book (including per-window transition counts), for
// the k-mer search and CAM bank output-identical with reconciled
// energy — with and without fault hooks, at any thread count.
#include "workloads/sharded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "support/sharded_cam_bank.h"
#include "support/sharded_golden.h"
#include "workloads/dna.h"

namespace memcim {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

TileFabricConfig fabric_cfg(std::size_t w, std::size_t h,
                            std::size_t rows = 4, std::size_t row_bits = 16) {
  TileFabricConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.tile.rows = rows;
  cfg.tile.row_bits = row_bits;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

ParallelAddParams add_params() {
  ParallelAddParams p;
  p.operations = 300;  // ragged final batch on purpose
  p.width = 24;
  p.adders = 16;
  return p;
}

/// Draw the operand streams exactly as sharded_parallel_add /
/// run_parallel_add do.
void draw_operands(const ParallelAddParams& p, Rng& rng,
                   std::vector<std::uint64_t>& a,
                   std::vector<std::uint64_t>& b) {
  const std::uint64_t max_operand = (std::uint64_t{1} << p.width) - 1;
  a.assign(p.operations, 0);
  b.assign(p.operations, 0);
  for (std::size_t op = 0; op < p.operations; ++op) {
    a[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
    b[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
  }
}

void expect_add_bitwise_equal(const ShardedAddResult& x,
                              const ShardedAddResult& y) {
  EXPECT_EQ(x.merged.sums, y.merged.sums);
  EXPECT_EQ(x.merged.total_pulses, y.merged.total_pulses);
  EXPECT_EQ(x.merged.mismatches, y.merged.mismatches);
  EXPECT_EQ(x.merged.transitions, y.merged.transitions);
  EXPECT_EQ(x.merged.total_energy.value(), y.merged.total_energy.value());
  EXPECT_EQ(x.merged.latency.value(), y.merged.latency.value());
  EXPECT_EQ(x.merged.op_energy, y.merged.op_energy);
  EXPECT_EQ(x.shard_transitions, y.shard_transitions);  // per-window tallies
}

TEST(ShardedAdd, MatchesSerialGoldenReplayBitwise) {
  const ParallelAddParams params = add_params();
  const CrsCellParams cell = presets::crs_cell();

  TileFabric fabric(fabric_cfg(2, 2));
  Rng rng_sharded(42);
  const ShardedAddResult sharded =
      sharded_parallel_add(fabric, params, cell, rng_sharded);

  Rng rng_golden(42);
  std::vector<std::uint64_t> op_a, op_b;
  draw_operands(params, rng_golden, op_a, op_b);
  const ShardPlan plan =
      Partitioner::batch_aligned(params.operations, fabric.tiles(), params.adders);
  const ShardedAddResult golden =
      replay_parallel_add_plan(plan, params, cell, op_a, op_b);

  expect_add_bitwise_equal(sharded, golden);
  EXPECT_EQ(sharded.merged.mismatches, 0u);
  // Fabric books exist and reconcile: compute + NoC, each counted once.
  EXPECT_GT(sharded.run.makespan, 0u);
  EXPECT_GT(sharded.run.flits, 0u);
  EXPECT_EQ(sharded.run.energy().value(),
            (sharded.run.compute_energy + sharded.run.noc_energy).value());
  EXPECT_EQ(sharded.run.compute_energy.value(),
            sharded.merged.total_energy.value());
}

TEST(ShardedAdd, SingleTileFabricEqualsPlainFarmRun) {
  const ParallelAddParams params = add_params();
  const CrsCellParams cell = presets::crs_cell();

  TileFabric fabric(fabric_cfg(1, 1));
  Rng rng_sharded(7);
  const ShardedAddResult sharded =
      sharded_parallel_add(fabric, params, cell, rng_sharded);

  Rng rng_plain(7);
  const ParallelAddResult plain = run_parallel_add(params, cell, rng_plain);

  EXPECT_EQ(sharded.merged.sums, plain.sums);
  EXPECT_EQ(sharded.merged.total_pulses, plain.total_pulses);
  EXPECT_EQ(sharded.merged.transitions, plain.transitions);
  EXPECT_EQ(sharded.merged.total_energy.value(), plain.total_energy.value());
  EXPECT_EQ(sharded.merged.latency.value(), plain.latency.value());
}

TEST(ShardedAdd, GoldenEqualityHoldsUnderArmedFaultHooks) {
  ParallelAddParams params = add_params();
  // Stateless hook, applied identically to every tile's full farm: the
  // same physical slots carry the same stuck cells everywhere.
  params.farm_hook = [](PackedTcAdderFarm& farm) {
    const std::size_t cells = PackedTcAdderFarm::devices(farm.width());
    farm.inject_stuck(0 * cells + 2, true);
    farm.inject_stuck(5 * cells + cells - 1, false);
    farm.inject_stuck(11 * cells + 0, true);
  };
  const CrsCellParams cell = presets::crs_cell();

  TileFabric fabric(fabric_cfg(2, 2));
  Rng rng_sharded(9);
  const ShardedAddResult sharded =
      sharded_parallel_add(fabric, params, cell, rng_sharded);

  Rng rng_golden(9);
  std::vector<std::uint64_t> op_a, op_b;
  draw_operands(params, rng_golden, op_a, op_b);
  const ShardPlan plan =
      Partitioner::batch_aligned(params.operations, fabric.tiles(), params.adders);
  const ShardedAddResult golden =
      replay_parallel_add_plan(plan, params, cell, op_a, op_b);

  expect_add_bitwise_equal(sharded, golden);
  EXPECT_GT(sharded.merged.mismatches, 0u);  // the faults really bite
}

TEST(ShardedAdd, BitwiseIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  const ParallelAddParams params = add_params();
  const CrsCellParams cell = presets::crs_cell();

  auto run_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    TileFabric fabric(fabric_cfg(2, 2));
    Rng rng(1234);
    return sharded_parallel_add(fabric, params, cell, rng);
  };
  const ShardedAddResult one = run_at(1);
  const ShardedAddResult four = run_at(4);

  expect_add_bitwise_equal(one, four);
  EXPECT_EQ(one.run.makespan, four.run.makespan);
  EXPECT_EQ(one.run.flits, four.run.flits);
  EXPECT_EQ(one.run.flit_hops, four.run.flit_hops);
  EXPECT_EQ(one.run.noc_energy.value(), four.run.noc_energy.value());
  EXPECT_EQ(one.run.compute_energy.value(), four.run.compute_energy.value());
  EXPECT_EQ(one.run.fabric_utilization, four.run.fabric_utilization);
}

// -- k-mer search -------------------------------------------------------------

struct KmerCase {
  std::vector<std::vector<bool>> database;
  std::vector<std::vector<bool>> queries;
};

KmerCase kmer_case(std::size_t rows) {
  Rng rng(0xD4A);
  const std::string genome = generate_genome(rows + 16, rng);
  KmerCase c;
  for (std::size_t r = 0; r < rows; ++r)
    c.database.push_back(encode_kmer(genome, r, 8));
  c.queries.push_back(encode_kmer(genome, 3, 8));
  c.queries.push_back(encode_kmer(genome, 9, 8));
  c.queries.push_back(encode_kmer(genome, rows + 5, 8));  // likely absent
  return c;
}

TEST(ShardedKmerSearch, MatchesSingleTileGolden) {
  TileFabric fabric(fabric_cfg(2, 2, 4, 16));
  const KmerCase c = kmer_case(fabric.tiles() * 4);
  const ShardedSearchResult out =
      sharded_kmer_search(fabric, c.database, c.queries);

  // Golden: one tile holding the whole database.
  CimTileConfig golden_cfg;
  golden_cfg.rows = c.database.size();
  golden_cfg.row_bits = 16;
  golden_cfg.cell = presets::crs_cell();
  CimTile golden(golden_cfg);
  for (std::size_t r = 0; r < c.database.size(); ++r)
    golden.store_row(r, c.database[r]);

  const Energy e0 = golden.stats().energy;
  ASSERT_EQ(out.matches.size(), c.queries.size());
  bool any_hit = false;
  for (std::size_t q = 0; q < c.queries.size(); ++q) {
    const std::vector<bool> m = golden.parallel_compare(c.queries[q]);
    std::vector<std::size_t> golden_rows;
    for (std::size_t r = 0; r < m.size(); ++r)
      if (m[r]) golden_rows.push_back(r);
    EXPECT_EQ(out.matches[q], golden_rows) << "query " << q;
    any_hit = any_hit || !golden_rows.empty();
  }
  EXPECT_TRUE(any_hit);

  // Energy reconciles: same per-row terms, re-associated summation.
  const double golden_energy = (golden.stats().energy - e0).value();
  EXPECT_NEAR(out.run.compute_energy.value(), golden_energy,
              1e-9 * golden_energy + 1e-30);
  EXPECT_GT(out.run.makespan, 0u);
  EXPECT_GT(out.run.noc_energy.value(), 0.0);
}

TEST(ShardedKmerSearch, BitwiseIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  auto run_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    TileFabric fabric(fabric_cfg(2, 2, 4, 16));
    const KmerCase c = kmer_case(fabric.tiles() * 4);
    return sharded_kmer_search(fabric, c.database, c.queries);
  };
  const ShardedSearchResult one = run_at(1);
  const ShardedSearchResult four = run_at(4);
  EXPECT_EQ(one.matches, four.matches);
  EXPECT_EQ(one.run.makespan, four.run.makespan);
  EXPECT_EQ(one.run.compute_energy.value(), four.run.compute_energy.value());
  EXPECT_EQ(one.run.noc_energy.value(), four.run.noc_energy.value());
}

// -- CAM bank -----------------------------------------------------------------

std::vector<bool> word_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

TEST(ShardedCamBank, MatchesSingleCamGoldenIncludingFaults) {
  TileFabric fabric(fabric_cfg(2, 2));
  CamConfig per_tile;
  per_tile.rows = 4;
  per_tile.word_bits = 12;
  per_tile.cell = presets::crs_cell();
  ShardedCamBank bank(fabric, per_tile);

  CamConfig golden_cfg = per_tile;
  golden_cfg.rows = bank.rows();
  CrsCam golden(golden_cfg);

  // Same faults first, then the same contents, globally addressed.
  bank.inject_stuck(5, 3, true);
  golden.inject_stuck(5, 3, true);
  for (std::size_t r = 0; r < bank.rows(); ++r) {
    const std::vector<bool> word = word_of(r * 2654435761u, 12);
    bank.write_row(r, word);
    golden.write_row(r, word);
  }

  for (std::uint64_t probe : {5ull, 9ull, 100ull}) {
    const std::vector<bool> key = word_of(probe * 2654435761u, 12);
    const ShardedCamBank::BankSearchResult got = bank.search(key);
    const CamSearchResult want = golden.search(key);
    EXPECT_EQ(got.matching_rows, want.matching_rows) << "probe " << probe;
    EXPECT_NEAR(got.run.compute_energy.value(), want.energy.value(),
                1e-9 * want.energy.value() + 1e-30);
    EXPECT_GT(got.run.makespan, 0u);
  }
  // Lifetime books reconcile across the bank.
  Energy lifetime{0.0};
  for (std::size_t t = 0; t < fabric.tiles(); ++t)
    lifetime += bank.cam(t).total_energy();
  EXPECT_EQ(bank.compute_energy().value(), lifetime.value());
}

TEST(ShardedCamBank, BitwiseIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  auto run_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    TileFabric fabric(fabric_cfg(2, 2));
    CamConfig per_tile;
    per_tile.rows = 4;
    per_tile.word_bits = 12;
    per_tile.cell = presets::crs_cell();
    ShardedCamBank bank(fabric, per_tile);
    for (std::size_t r = 0; r < bank.rows(); ++r)
      bank.write_row(r, word_of(r * 40503u, 12));
    return bank.search(word_of(3 * 40503u, 12));
  };
  const ShardedCamBank::BankSearchResult one = run_at(1);
  const ShardedCamBank::BankSearchResult four = run_at(4);
  EXPECT_EQ(one.matching_rows, four.matching_rows);
  EXPECT_EQ(one.run.makespan, four.run.makespan);
  EXPECT_EQ(one.run.compute_energy.value(), four.run.compute_energy.value());
  EXPECT_EQ(one.run.noc_energy.value(), four.run.noc_energy.value());
}

}  // namespace
}  // namespace memcim

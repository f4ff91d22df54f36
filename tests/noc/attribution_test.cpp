// Attribution-book reconciliation: the per-(layer, tile, shard) books
// recorded by the sharded workloads and the serving dispatcher must
// reproduce the global cost books — pulse and flit columns bitwise,
// energy columns to within one attojoule-quantisation per recorded
// event — and the whole book must be bitwise identical at any
// MEMCIM_THREADS setting.
#include "telemetry/attribution.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "serving/dispatcher.h"
#include "support/sharded_golden.h"
#include "workloads/dna.h"
#include "workloads/sharded.h"

namespace memcim {
namespace {

using telemetry::AttrDelta;
using telemetry::AttrLayer;
using telemetry::AttrRecord;
using telemetry::AttributionBook;
using telemetry::to_attojoules;

struct BookGuard {
  std::size_t threads = parallel_threads();
  BookGuard() {
    telemetry::set_enabled(true);
    AttributionBook::global().reset();
  }
  ~BookGuard() {
    telemetry::set_enabled(true);
    AttributionBook::global().reset();
    set_parallel_threads(threads);
  }
};

TileFabricConfig fabric_cfg(std::size_t rows = 4, std::size_t row_bits = 16) {
  TileFabricConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.tile.rows = rows;
  cfg.tile.row_bits = row_bits;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

ParallelAddParams add_params() {
  ParallelAddParams p;
  p.operations = 128;
  p.width = 16;
  p.adders = 16;
  return p;
}

/// |a - b| <= slack, reported in attojoules.
void expect_aj_near(std::uint64_t a, std::uint64_t b, std::uint64_t slack) {
  const std::uint64_t delta = a > b ? a - b : b - a;
  EXPECT_LE(delta, slack) << a << " vs " << b;
}

TEST(Attribution, ToAttojoulesClampsAndSaturates) {
  EXPECT_EQ(to_attojoules(0.0), 0u);
  EXPECT_EQ(to_attojoules(-0.0), 0u);
  EXPECT_EQ(to_attojoules(1e-18), 1u);
  EXPECT_EQ(to_attojoules(1.5e-18), 2u);  // rounds, not truncates
  // Negative and NaN inputs clamp to 0 instead of wrapping to ~1.8e19.
  EXPECT_EQ(to_attojoules(-1e-9), 0u);
  EXPECT_EQ(to_attojoules(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Past the llround-representable range (> ~9.2 J) saturates, no UB.
  const std::uint64_t sat = to_attojoules(100.0);
  EXPECT_EQ(sat, to_attojoules(std::numeric_limits<double>::infinity()));
  EXPECT_GT(sat, to_attojoules(9.0));
}

TEST(Attribution, AddReconcilesAgainstGlobalBooks) {
  BookGuard guard;
  TileFabric fabric(fabric_cfg());
  Rng rng(42);
  const ShardedAddResult out =
      sharded_parallel_add(fabric, add_params(), presets::crs_cell(), rng);

  const AttributionBook& book = AttributionBook::global();
  const std::uint64_t tiles = fabric.tiles();

  // Pulse and flit columns are exact u64 tallies of the global books.
  EXPECT_EQ(book.layer_totals(AttrLayer::kDevice).pulses,
            out.merged.total_pulses);
  EXPECT_EQ(book.layer_totals(AttrLayer::kNoc).flits, out.run.flits);
  EXPECT_EQ(book.totals().flits, out.run.flits);

  // Energy columns: one llround per recorded event, so the book total
  // sits within one aJ per event of the re-quantised global double.
  expect_aj_near(book.layer_totals(AttrLayer::kLogic).energy_aj,
                 to_attojoules(out.merged.total_energy.value()), tiles);
  expect_aj_near(book.layer_totals(AttrLayer::kNoc).energy_aj,
                 to_attojoules(out.run.noc_energy.value()), tiles + 1);

  // The NoC rows are exactly the quantised per-packet-pair model: the
  // same packet_energy() the mesh's global dynamic_energy() integrates.
  const std::size_t fpb = fabric.config().noc.flit_payload_bits;
  const std::size_t desc_flits = (128 + fpb - 1) / fpb;
  std::uint64_t expected_noc_aj = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const Energy pair =
        fabric.noc().packet_energy(fabric.host(), t, desc_flits) +
        fabric.noc().packet_energy(t, fabric.host(), desc_flits);
    expected_noc_aj += to_attojoules(pair.value());
  }
  EXPECT_EQ(book.layer_totals(AttrLayer::kNoc).energy_aj, expected_noc_aj);

  // Arch occupancy: every tile carries busy time under its own shard.
  EXPECT_GT(book.layer_totals(AttrLayer::kArch).span_ns, 0u);
  for (const AttrRecord& r : book.snapshot()) {
    if (r.key.layer != AttrLayer::kArch) continue;
    EXPECT_LT(r.key.tile, tiles);
    EXPECT_EQ(r.key.shard, r.key.tile);
  }

  // The attr.<layer>.* rollup counters mirror the book columns.
  telemetry::Registry& reg = telemetry::Registry::global();
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  EXPECT_GE(snap.counter("attr.noc.flits"),
            book.layer_totals(AttrLayer::kNoc).flits);
  EXPECT_GE(snap.counter("attr.device.pulses"),
            book.layer_totals(AttrLayer::kDevice).pulses);
}

TEST(Attribution, KmerSearchReconciles) {
  BookGuard guard;
  TileFabric fabric(fabric_cfg(4, 16));
  Rng rng(0xD4A);
  const std::string genome = generate_genome(fabric.tiles() * 4 + 16, rng);
  std::vector<std::vector<bool>> database;
  for (std::size_t r = 0; r < fabric.tiles() * 4; ++r)
    database.push_back(encode_kmer(genome, r, 8));
  const std::vector<std::vector<bool>> queries = {
      encode_kmer(genome, 3, 8), encode_kmer(genome, 9, 8)};

  const ShardedSearchResult out =
      sharded_kmer_search(fabric, database, queries);

  const AttributionBook& book = AttributionBook::global();
  EXPECT_EQ(book.layer_totals(AttrLayer::kNoc).flits, out.run.flits);
  expect_aj_near(book.layer_totals(AttrLayer::kCrossbar).energy_aj,
                 to_attojoules(out.run.compute_energy.value()),
                 fabric.tiles());
  EXPECT_EQ(book.layer_totals(AttrLayer::kDevice).pulses, 0u);
}

TEST(Attribution, CamBankReconciles) {
  BookGuard guard;
  TileFabric fabric(fabric_cfg());
  CamConfig per_tile;
  per_tile.rows = 4;
  per_tile.word_bits = 12;
  per_tile.cell = presets::crs_cell();
  ShardedCamBank bank(fabric, per_tile);
  for (std::size_t r = 0; r < bank.rows(); ++r) {
    std::vector<bool> word(12);
    for (std::size_t i = 0; i < word.size(); ++i)
      word[i] = (((r * 2654435761u) >> i) & 1u) != 0;
    bank.write_row(r, word);
  }
  std::vector<bool> key(12);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = (((std::size_t{3} * 2654435761u) >> i) & 1u) != 0;

  const ShardedCamBank::BankSearchResult out = bank.search(key);

  const AttributionBook& book = AttributionBook::global();
  EXPECT_EQ(book.layer_totals(AttrLayer::kNoc).flits, out.run.flits);
  expect_aj_near(book.layer_totals(AttrLayer::kLogic).energy_aj,
                 to_attojoules(out.run.compute_energy.value()),
                 fabric.tiles());
}

TEST(Attribution, ServingWindowReconciles) {
  serving::ServingWorkloadConfig workload;
  workload.add_width = 16;
  workload.adders_per_tile = 4;
  workload.cam.rows = 4;
  workload.cam.word_bits = 16;
  workload.cam.cell = presets::crs_cell();
  std::vector<std::vector<bool>> words;
  for (std::size_t r = 0; r < 16; ++r) {
    std::vector<bool> word(16);
    for (std::size_t i = 0; i < word.size(); ++i)
      word[i] = (((r * 2654435761u) >> i) & 1u) != 0;
    words.push_back(word);
  }
  const std::size_t lanes = 6;  // the add window spans two tiles' farms

  for (const serving::RequestClass cls :
       {serving::RequestClass::kKmerQuery, serving::RequestClass::kCamSearch,
        serving::RequestClass::kAddition}) {
    SCOPED_TRACE(serving::to_string(cls));
    BookGuard guard;
    TileFabric fabric(fabric_cfg());
    serving::BatchDispatcher dispatcher(fabric, workload, words, words);
    serving::Batch batch;
    batch.cls = cls;
    std::vector<std::uint64_t> op_a, op_b;
    for (std::size_t i = 0; i < lanes; ++i) {
      serving::Request r;
      r.cls = cls;
      r.id = i;
      r.add_a = (i * 7919u) & 0xFFFFu;
      r.add_b = (i * 104729u) & 0xFFFFu;
      r.key = words[(5 * i) % words.size()];
      op_a.push_back(r.add_a);
      op_b.push_back(r.add_b);
      batch.requests.push_back(r);
    }
    const serving::BatchExecution exec = dispatcher.execute(batch);

    const AttributionBook& book = AttributionBook::global();
    const std::uint64_t tiles = fabric.tiles();
    EXPECT_EQ(book.layer_totals(AttrLayer::kNoc).flits, exec.flits);
    expect_aj_near(book.layer_totals(AttrLayer::kNoc).energy_aj,
                   to_attojoules(exec.noc_energy.value()), tiles + 1);
    const AttrLayer compute = cls == serving::RequestClass::kKmerQuery
                                  ? AttrLayer::kCrossbar
                                  : AttrLayer::kLogic;
    expect_aj_near(book.layer_totals(compute).energy_aj,
                   to_attojoules(exec.compute_energy.value()), tiles);
    EXPECT_GT(book.layer_totals(AttrLayer::kArch).span_ns, 0u);

    // The add window's device pulses: those of its shards run alone.
    std::uint64_t pulses = 0;
    if (cls == serving::RequestClass::kAddition) {
      const ShardPlan plan =
          Partitioner::batch_aligned(lanes, tiles, workload.adders_per_tile);
      for (const Shard& s : plan.shards) {
        if (s.empty()) continue;
        ParallelAddParams params;
        params.operations = s.size();
        params.width = workload.add_width;
        params.adders = workload.adders_per_tile;
        const auto begin = static_cast<std::ptrdiff_t>(s.begin);
        const auto end = static_cast<std::ptrdiff_t>(s.end);
        pulses += run_parallel_add_ops(
                      params, presets::crs_cell(),
                      {op_a.begin() + begin, op_a.begin() + end},
                      {op_b.begin() + begin, op_b.begin() + end})
                      .total_pulses;
      }
      EXPECT_GT(pulses, 0u);
    }
    EXPECT_EQ(book.layer_totals(AttrLayer::kDevice).pulses, pulses);

    // A serving window is not shard-scoped: no row carries a shard.
    for (const AttrRecord& r : book.snapshot())
      EXPECT_EQ(r.key.shard, telemetry::kNoShard)
          << telemetry::attr_layer_name(r.key.layer) << " tile "
          << r.key.tile;
  }
}

TEST(Attribution, BookIsBitwiseIdenticalAcrossThreadCounts) {
  BookGuard guard;
  auto run_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    AttributionBook::global().reset();
    TileFabric fabric(fabric_cfg());
    Rng rng(1234);
    (void)sharded_parallel_add(fabric, add_params(), presets::crs_cell(),
                               rng);
    return AttributionBook::global().snapshot();
  };
  const std::vector<AttrRecord> one = run_at(1);
  const std::vector<AttrRecord> four = run_at(4);

  ASSERT_EQ(one.size(), four.size());
  ASSERT_FALSE(one.empty());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].key, four[i].key);
    EXPECT_EQ(one[i].delta.energy_aj, four[i].delta.energy_aj);
    EXPECT_EQ(one[i].delta.pulses, four[i].delta.pulses);
    EXPECT_EQ(one[i].delta.flits, four[i].delta.flits);
    EXPECT_EQ(one[i].delta.span_ns, four[i].delta.span_ns);
  }
}

TEST(Attribution, MatchesSerialGoldenReplay) {
  BookGuard guard;
  const ParallelAddParams params = add_params();
  const CrsCellParams cell = presets::crs_cell();

  TileFabric fabric(fabric_cfg());
  Rng rng_sharded(9);
  (void)sharded_parallel_add(fabric, params, cell, rng_sharded);
  const AttributionBook& book = AttributionBook::global();

  // Re-derive the golden books from a serial replay of the same plan.
  Rng rng_golden(9);
  const std::uint64_t max_operand = (std::uint64_t{1} << params.width) - 1;
  std::vector<std::uint64_t> op_a(params.operations), op_b(params.operations);
  for (std::size_t op = 0; op < params.operations; ++op) {
    op_a[op] = static_cast<std::uint64_t>(
        rng_golden.uniform_int(0, static_cast<std::int64_t>(max_operand)));
    op_b[op] = static_cast<std::uint64_t>(
        rng_golden.uniform_int(0, static_cast<std::int64_t>(max_operand)));
  }
  const ShardPlan plan = Partitioner::batch_aligned(
      params.operations, fabric.tiles(), params.adders);
  const ShardedAddResult golden =
      replay_parallel_add_plan(plan, params, cell, op_a, op_b);

  EXPECT_EQ(book.layer_totals(AttrLayer::kDevice).pulses,
            golden.merged.total_pulses);
  expect_aj_near(book.layer_totals(AttrLayer::kLogic).energy_aj,
                 to_attojoules(golden.merged.total_energy.value()),
                 fabric.tiles());
}

TEST(Attribution, DisabledTelemetryRecordsNothing) {
  BookGuard guard;
  telemetry::set_enabled(false);
  TileFabric fabric(fabric_cfg());
  Rng rng(3);
  (void)sharded_parallel_add(fabric, add_params(), presets::crs_cell(), rng);
  EXPECT_TRUE(AttributionBook::global().snapshot().empty());
  const AttrDelta totals = AttributionBook::global().totals();
  EXPECT_EQ(totals.energy_aj, 0u);
  EXPECT_EQ(totals.flits, 0u);
}

}  // namespace
}  // namespace memcim

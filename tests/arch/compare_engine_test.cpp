// Tile compare: CimTile::parallel_compare books the word-equality
// program it binds on its first compare in closed form, replaying
// nothing.  It must be a drop-in for the per-row IdealFabric walk the
// program was recorded from and for the packed replay of every row
// (tests/support/compare_oracles.h) — bitwise-identical match vectors
// AND exactly reconciled books: the tile's, the bank's, every cell's and
// the telemetry counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "arch/cim_tile.h"
#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "isa/cache.h"
#include "isa/kernels.h"
#include "logic/comparator.h"
#include "logic/packed.h"
#include "support/compare_oracles.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

std::vector<bool> random_word(std::size_t bits, Rng& rng) {
  std::vector<bool> w(bits);
  for (std::size_t i = 0; i < bits; ++i) w[i] = rng.uniform() < 0.5;
  return w;
}

struct TileShape {
  std::size_t rows;
  std::size_t row_bits;
};

void PrintTo(const TileShape& shape, std::ostream* os) {
  *os << shape.rows << "x" << shape.row_bits;
}

/// Shapes on both sides of the 64-row lane block and the 64-bit row
/// word: the compare reads stored rows as u64 words.
class CompareEngine : public ::testing::TestWithParam<TileShape> {};

TEST_P(CompareEngine, CompiledReproducesTheScalarWalkExactly) {
  CimTileConfig cfg;
  cfg.rows = GetParam().rows;
  cfg.row_bits = GetParam().row_bits;
  cfg.cell = presets::crs_cell();
  CimTile tile(cfg);
  ScalarCompareOracle oracle(cfg.cost);

  Rng rng(0x71EEull);
  std::vector<std::vector<bool>> rows;
  std::uint64_t stored_zeros = 0;
  for (std::size_t r = 0; r < cfg.rows; ++r) {
    rows.push_back(random_word(cfg.row_bits, rng));
    tile.store_row(r, rows.back());
    stored_zeros += static_cast<std::uint64_t>(
        std::count(rows.back().begin(), rows.back().end(), false));
  }

  const CrsMemory& memory = tile.memory();
  for (int q = 0; q < 32; ++q) {
    // Mix random keys with exact row hits so matches actually fire.
    const std::vector<bool> key =
        (q % 4 == 0) ? rows[static_cast<std::size_t>(q) % cfg.rows]
                     : random_word(cfg.row_bits, rng);
    const std::uint64_t reads = memory.reads();
    const std::uint64_t destructive = memory.destructive_reads();
    const std::uint64_t pulses = memory.total_pulses();
    EXPECT_EQ(tile.parallel_compare(key), oracle.compare(rows, key))
        << "query " << q;
    // Book-exact: same accumulated latency and energy after every query.
    EXPECT_EQ(tile.stats().latency.value(), oracle.latency.value())
        << "query " << q;
    EXPECT_EQ(tile.stats().energy.value(), oracle.energy.value())
        << "query " << q;
    EXPECT_EQ(tile.stats().operations,
              static_cast<std::uint64_t>(q + 1) * cfg.rows);
    // The storage side of the compare: every cell read once, every
    // stored '0' destroyed and written back.
    EXPECT_EQ(memory.reads() - reads, cfg.rows * cfg.row_bits)
        << "query " << q;
    EXPECT_EQ(memory.destructive_reads() - destructive, stored_zeros)
        << "query " << q;
    EXPECT_EQ(memory.total_pulses() - pulses,
              (memory.reads() - reads) +
                  (memory.destructive_reads() - destructive))
        << "query " << q;
  }
}

/// Telemetry books compiler.compiles only while it is on; keep it on for
/// the test and restore whatever the process started with.
struct TelemetryOn {
  bool was = telemetry::enabled();
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(was); }
};

/// A tile binds its program on the first compare and keeps it: after
/// the program cache is cleared its next compare compiles nothing, and
/// its matches and books equal those of a fresh tile that fills the
/// cleared cache again.
TEST_P(CompareEngine, KeepsItsProgramAcrossACacheClear) {
  const TelemetryOn telemetry_on;
  CimTileConfig cfg;
  cfg.rows = GetParam().rows;
  cfg.row_bits = GetParam().row_bits;
  cfg.cell = presets::crs_cell();
  Rng rng(0xB17Dull);
  std::vector<std::vector<bool>> rows;
  for (std::size_t r = 0; r < cfg.rows; ++r)
    rows.push_back(random_word(cfg.row_bits, rng));
  const auto make_tile = [&] {
    CimTile tile(cfg);
    for (std::size_t r = 0; r < cfg.rows; ++r) tile.store_row(r, rows[r]);
    return tile;
  };
  const std::vector<bool> first_key = random_word(cfg.row_bits, rng);
  const std::vector<bool>& second_key = rows[cfg.rows / 2];

  CimTile bound = make_tile();
  (void)bound.parallel_compare(first_key);
  isa::ProgramCache::global().clear();
  const telemetry::Counter& compiles =
      telemetry::Registry::global().counter("compiler.compiles");
  const std::uint64_t compiled = compiles.value();
  const std::vector<bool> matches = bound.parallel_compare(second_key);
  EXPECT_EQ(compiles.value(), compiled);

  CimTile fresh = make_tile();
  (void)fresh.parallel_compare(first_key);
  EXPECT_EQ(compiles.value(), compiled + 1);
  EXPECT_EQ(fresh.parallel_compare(second_key), matches);
  EXPECT_TRUE(matches[cfg.rows / 2]);
  EXPECT_EQ(bound.stats().latency.value(), fresh.stats().latency.value());
  EXPECT_EQ(bound.stats().energy.value(), fresh.stats().energy.value());
  EXPECT_EQ(bound.stats().operations, fresh.stats().operations);
  EXPECT_EQ(bound.memory().reads(), fresh.memory().reads());
  EXPECT_EQ(bound.memory().destructive_reads(),
            fresh.memory().destructive_reads());
  EXPECT_EQ(bound.memory().total_pulses(), fresh.memory().total_pulses());
  EXPECT_EQ(bound.memory().total_energy().value(),
            fresh.memory().total_energy().value());
}

INSTANTIATE_TEST_SUITE_P(
    TileShapes, CompareEngine,
    ::testing::Values(TileShape{8, 12}, TileShape{1, 1}, TileShape{64, 64},
                      TileShape{65, 33}, TileShape{130, 100}),
    ::testing::PrintToStringParamName());

/// The bind check: the flip tables fit the bound word-equality program
/// on the probe block, and a program they do not fit, or a width other
/// than the program's, throws.
TEST(CompareFlips, BindChecksTheProgramOnItsProbe) {
  for (const std::size_t bits : {1u, 2u, 12u, 64u, 65u}) {
    const auto compiled = isa::cached_word_equality(bits);
    const PackedProgram& program = compiled->packed_source;
    EXPECT_NO_THROW((void)bind_word_equality_flips(program, bits)) << bits;
    EXPECT_THROW((void)bind_word_equality_flips(program, bits + 1), Error)
        << bits;
    // One register more, set at the end: 64 flips the closed form lacks.
    PackedProgram extra = program;
    extra.instructions.push_back({CimOp::kSetTrue, extra.registers, 0});
    ++extra.registers;
    EXPECT_THROW((void)bind_word_equality_flips(extra, bits), Error) << bits;
    // The output cleared at the end: no row matches.
    PackedProgram cleared = program;
    cleared.instructions.push_back({CimOp::kSetFalse, cleared.outputs[0], 0});
    EXPECT_THROW((void)bind_word_equality_flips(cleared, bits), Error)
        << bits;
  }
}

/// The telemetry a compare books: what the packed replay of every row
/// books less the engine's own logic.packed.{runs,windows,lane_blocks,
/// word_ops}, plus the bank's crs_cell.* read events.
constexpr std::array<const char*, 14> kComparedCounters = {
    "fabric.set",
    "fabric.imply",
    "fabric.read",
    "fabric.steps",
    "fabric.writes",
    "program.runs",
    "program.instructions",
    "program.imply_steps",
    "program.simd_windows",
    "logic.packed.transitions",
    "crs_cell.pulses",
    "crs_cell.transitions",
    "crs_cell.switch_energy_aj",
    "crs_cell.stuck_absorbed"};

std::array<std::uint64_t, kComparedCounters.size()> read_counters() {
  std::array<std::uint64_t, kComparedCounters.size()> values{};
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] =
        telemetry::Registry::global().counter(kComparedCounters[i]).value();
  return values;
}

/// Shapes on both sides of the 64-row lane block and the 64-bit row
/// word, down to one row of one bit.
class CompareOracle : public ::testing::TestWithParam<TileShape> {};

/// Seeded streams of row stores and compares, the tile beside a
/// ReplayCompareOracle: after every operation the two agree on the
/// matches, the tile stats, the bank totals, every cell's transitions and
/// each side's telemetry deltas.  Several compares between two stores of
/// a row leave several whole-bank reads for the store to fold.
TEST_P(CompareOracle, MatchesThePackedReplayAfterEveryOperation) {
  const TelemetryOn telemetry_on;
  CimTileConfig cfg;
  cfg.rows = GetParam().rows;
  cfg.row_bits = GetParam().row_bits;
  cfg.cell = presets::crs_cell();
  constexpr std::uint64_t kSeeds = 200;
  constexpr int kOpsPerSeed = 12;
  // The tile compiles its program on its first compare, inside a delta
  // window: a compile records the program, and a recording books no
  // fabric.*.

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CimTile tile(cfg);
    ReplayCompareOracle oracle(cfg);
    Rng rng(seed);
    std::vector<std::vector<bool>> rows(cfg.rows,
                                        std::vector<bool>(cfg.row_bits));
    const auto pick_row = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cfg.rows) - 1));
    };
    const auto pick_kind = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, 2));
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", op " << op);
      const auto before = read_counters();
      decltype(read_counters()) mid;
      if (rng.bernoulli(0.35)) {
        const std::size_t r = pick_row();
        rows[r] = random_word(cfg.row_bits, rng);
        tile.store_row(r, rows[r]);
        mid = read_counters();
        oracle.store_row(r, rows[r]);
      } else {
        // A third of the keys hit a stored row, so matches fire, and a
        // third miss one in a single bit, so a row word the compare
        // skipped would show.
        std::vector<bool> key = random_word(cfg.row_bits, rng);
        if (const std::size_t kind = pick_kind(); kind != 0) {
          key = rows[pick_row()];
          if (kind == 2) {
            const auto bit = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(cfg.row_bits) - 1));
            key[bit] = !key[bit];
          }
        }
        const std::vector<bool> got = tile.parallel_compare(key);
        mid = read_counters();
        EXPECT_EQ(got, oracle.parallel_compare(key));
      }
      const auto after = read_counters();

      for (std::size_t i = 0; i < kComparedCounters.size(); ++i)
        EXPECT_EQ(mid[i] - before[i], after[i] - mid[i])
            << kComparedCounters[i];
      EXPECT_EQ(tile.stats().latency.value(), oracle.stats().latency.value());
      EXPECT_EQ(tile.stats().energy.value(), oracle.stats().energy.value());
      EXPECT_EQ(tile.stats().operations, oracle.stats().operations);
      const CrsMemory& bank = tile.memory();
      const CrsMemory& want = oracle.memory();
      EXPECT_EQ(bank.reads(), want.reads());
      EXPECT_EQ(bank.writes(), want.writes());
      EXPECT_EQ(bank.destructive_reads(), want.destructive_reads());
      EXPECT_EQ(bank.total_pulses(), want.total_pulses());
      EXPECT_EQ(bank.total_energy().value(), want.total_energy().value());
      for (std::size_t r = 0; r < cfg.rows; ++r)
        for (std::size_t c = 0; c < cfg.row_bits; ++c)
          EXPECT_EQ(bank.transitions(r, c), want.transitions(r, c))
              << "cell (" << r << ", " << c << ")";
      if (HasFailure()) return;  // the first divergence says it all
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompareOracle,
    ::testing::Values(TileShape{1, 1}, TileShape{4, 16}, TileShape{8, 12},
                      TileShape{32, 32}, TileShape{64, 64}, TileShape{65, 33},
                      TileShape{130, 100}, TileShape{3, 129}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace memcim

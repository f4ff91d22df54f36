// Tile compare: CimTile::parallel_compare replays the word-equality
// program it binds on its first compare on the packed engine.  It must
// be a drop-in for the per-row IdealFabric walk the program was recorded
// from, which this test keeps as the oracle — bitwise-identical match
// vectors AND an exactly reconciled cost book.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "arch/cim_tile.h"
#include "common/rng.h"
#include "device/presets.h"
#include "isa/cache.h"
#include "logic/comparator.h"
#include "logic/ideal_fabric.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

std::vector<bool> random_word(std::size_t bits, Rng& rng) {
  std::vector<bool> w(bits);
  for (std::size_t i = 0; i < bits; ++i) w[i] = rng.uniform() < 0.5;
  return w;
}

/// The scalar per-row walk: each row owns its slice of the fabric and
/// rows run concurrently, so one compare costs the slowest row's
/// latency and the sum of the rows' energies, folded in row order.
class ScalarCompareOracle {
 public:
  explicit ScalarCompareOracle(const LogicCostModel& cost) : cost_(cost) {}

  std::vector<bool> compare(const std::vector<std::vector<bool>>& rows,
                            const std::vector<bool>& key) {
    std::vector<bool> matches(rows.size());
    Time worst_row_latency{0.0};
    Energy total_energy{0.0};
    for (std::size_t r = 0; r < rows.size(); ++r) {
      IdealFabric fabric(cost_);
      const std::vector<Reg> key_regs = load_word(fabric, key);
      const std::vector<Reg> row_regs = load_word(fabric, rows[r]);
      const Reg eq = word_equality(fabric, key_regs, row_regs);
      matches[r] = fabric.read(eq);
      worst_row_latency = std::max(worst_row_latency, fabric.latency());
      total_energy += fabric.energy();
    }
    latency += worst_row_latency;
    energy += total_energy;
    return matches;
  }

  Time latency{0.0};
  Energy energy{0.0};

 private:
  LogicCostModel cost_;
};

struct TileShape {
  std::size_t rows;
  std::size_t row_bits;
};

void PrintTo(const TileShape& shape, std::ostream* os) {
  *os << shape.rows << "x" << shape.row_bits;
}

/// Shapes on both sides of the 64-row lane block and the 64-bit row
/// word: the compare transposes stored row words into lane words.
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

}  // namespace
}  // namespace memcim

#include "arch/cim_machine.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"

namespace memcim {
namespace {

CimMachineConfig machine_cfg() {
  CimMachineConfig cfg;
  cfg.tiles = 4;
  cfg.tile.rows = 8;
  cfg.tile.row_bits = 16;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

TEST(CimMachine, GlobalRowAddressingAcrossTiles) {
  CimMachine m(machine_cfg());
  EXPECT_EQ(m.capacity_rows(), 32u);
  m.store(0, bits_of(0x1111, 16));
  m.store(9, bits_of(0x2222, 16));   // tile 1, row 1
  m.store(31, bits_of(0x3333, 16));  // tile 3, row 7
  EXPECT_EQ(m.load(0), bits_of(0x1111, 16));
  EXPECT_EQ(m.load(9), bits_of(0x2222, 16));
  EXPECT_EQ(m.load(31), bits_of(0x3333, 16));
  EXPECT_THROW(m.store(32, bits_of(0, 16)), Error);
}

TEST(CimMachine, SearchSpansAllTiles) {
  CimMachine m(machine_cfg());
  const auto key = bits_of(0xBEEF, 16);
  for (std::size_t r = 0; r < 32; ++r)
    m.store(r, r == 5 || r == 20 ? key : bits_of(r * 2654435761u, 16));
  const auto matches = m.search(key);
  EXPECT_EQ(matches, (std::vector<std::size_t>{5, 20}));
}

TEST(CimMachine, SearchLatencyIsOneWavePlusDispatch) {
  CimMachineConfig one = machine_cfg();
  one.tiles = 1;
  CimMachineConfig four = machine_cfg();
  four.tiles = 4;
  CimMachine m1(one), m4(four);
  const auto key = bits_of(0xAAAA, 16);
  for (std::size_t r = 0; r < m1.capacity_rows(); ++r)
    m1.store(r, bits_of(r, 16));
  for (std::size_t r = 0; r < m4.capacity_rows(); ++r)
    m4.store(r, bits_of(r, 16));
  (void)m1.search(key);
  (void)m4.search(key);
  // Tiles search concurrently: 4 tiles cost the same wave latency.
  EXPECT_NEAR(m1.stats().latency.value(), m4.stats().latency.value(), 1e-15);
  // Energy scales with the searched capacity.
  EXPECT_GT(m4.energy().value(), 3.0 * m1.energy().value());
}

TEST(CimMachine, StatsAccumulateAcrossWaves) {
  CimMachine m(machine_cfg());
  for (std::size_t r = 0; r < 32; ++r) m.store(r, bits_of(r, 16));
  (void)m.search(bits_of(3, 16));
  (void)m.search(bits_of(7, 16));
  EXPECT_EQ(m.stats().waves, 2u);
  EXPECT_EQ(m.stats().operations, 64u);  // 32 rows compared per wave
  EXPECT_GT(m.energy().value(), 0.0);
}

// The accounting contract: machine energy is exactly the sum of the
// live per-tile books plus accumulated dispatch overhead — bitwise, not
// approximately — even when machine waves interleave with direct
// tile(i) operations (which the old delta-accumulation scheme would
// have double counted or missed).
TEST(CimMachine, EnergyReconcilesWithTileBooks) {
  CimMachine m(machine_cfg());
  for (std::size_t r = 0; r < 32; ++r) m.store(r, bits_of(r * 7919u, 16));
  (void)m.search(bits_of(0x0F0F, 16));
  // Bypass the machine: drive one tile directly between waves.
  (void)m.tile(2).parallel_compare(bits_of(0x5555, 16));
  (void)m.search(bits_of(0x3C3C, 16));

  Energy tiles{0.0};
  for (std::size_t ti = 0; ti < m.config().tiles; ++ti)
    tiles += m.tile(ti).stats().energy;
  EXPECT_EQ(m.tile_energy().value(), tiles.value());
  const double dispatch = 2.0 * m.config().dispatch_energy.value();
  EXPECT_DOUBLE_EQ(m.dispatch_energy().value(), dispatch);
  EXPECT_EQ(m.energy().value(),
            (m.tile_energy() + m.dispatch_energy()).value());
}

}  // namespace
}  // namespace memcim

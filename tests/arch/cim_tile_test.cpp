#include "arch/cim_tile.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"

namespace memcim {
namespace {

CimTileConfig small_tile() {
  CimTileConfig cfg;
  cfg.rows = 8;
  cfg.row_bits = 16;
  cfg.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

TEST(CimTile, StoreLoadRoundTrip) {
  CimTile tile(small_tile());
  const auto word = bits_of(0xBEEF, 16);
  tile.store_row(3, word);
  EXPECT_EQ(tile.load_row(3), word);
}

TEST(CimTile, ParallelCompareFindsMatchingRows) {
  CimTile tile(small_tile());
  Rng rng(99);
  const auto key = bits_of(0x1234, 16);
  std::vector<std::size_t> expected_matches;
  for (std::size_t r = 0; r < 8; ++r) {
    if (r == 2 || r == 5) {
      tile.store_row(r, key);
      expected_matches.push_back(r);
    } else {
      auto other = key;
      other[static_cast<std::size_t>(rng.uniform_int(0, 15))].flip();
      tile.store_row(r, other);
    }
  }
  const std::vector<bool> matches = tile.parallel_compare(key);
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_EQ(matches[r], r == 2 || r == 5) << "row " << r;
}

TEST(CimTile, CompareLatencyIsOneRowPass) {
  CimTile tile(small_tile());
  const auto key = bits_of(0xFFFF, 16);
  for (std::size_t r = 0; r < 8; ++r) tile.store_row(r, key);
  (void)tile.parallel_compare(key);
  const CimTileStats s1 = tile.stats();
  // All 8 rows compared, but latency is a single row-comparator pass —
  // well under 8× the per-row program length.
  EXPECT_EQ(s1.operations, 8u);
  EXPECT_GT(s1.latency.value(), 0.0);
  // One 16-bit word-equality ≈ (15+16·16) steps · 200 ps < 80 ns.
  EXPECT_LT(s1.latency.value(), 200e-9);
  // Energy is the sum over rows: at least 8× one row's worth of writes.
  EXPECT_GT(s1.energy.value(), 8 * 16 * 1e-15);
}

TEST(CimTile, ParallelAddLaneWise) {
  CimTileConfig cfg = small_tile();
  cfg.row_bits = 32;  // 4 lanes of 8 bits
  CimTile tile(cfg);
  const std::uint64_t a = 0x01020304, b = 0x10FF4060;
  tile.store_row(0, bits_of(a, 32));
  tile.store_row(1, bits_of(b, 32));
  tile.parallel_add(0, 1, 2, 8);
  // Lane-wise byte addition without carry across lanes.
  const std::uint64_t expect = ((0x01 + 0x10) & 0xFF) << 24 |
                               ((0x02 + 0xFF) & 0xFF) << 16 |
                               ((0x03 + 0x40) & 0xFF) << 8 |
                               ((0x04 + 0x60) & 0xFF);
  EXPECT_EQ(tile.load_row(2), bits_of(expect, 32));
}

TEST(CimTile, AddStatsCountLanes) {
  CimTileConfig cfg = small_tile();
  cfg.row_bits = 64;
  CimTile tile(cfg);
  tile.store_row(0, bits_of(123456789, 64));
  tile.store_row(1, bits_of(987654321, 64));
  tile.parallel_add(0, 1, 2, 32);  // 2 lanes
  EXPECT_EQ(tile.stats().operations, 2u);
  // Latency = one 32-bit TC-adder pass (lanes in parallel) = 133·200 ps.
  EXPECT_NEAR(tile.stats().latency.value(), 26.6e-9, 1e-12);
}

TEST(CimTile, FullWidthAddMatchesIntegers) {
  CimTileConfig cfg = small_tile();
  cfg.row_bits = 32;
  CimTile tile(cfg);
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    tile.store_row(0, bits_of(a, 32));
    tile.store_row(1, bits_of(b, 32));
    tile.parallel_add(0, 1, 2, 32);
    EXPECT_EQ(tile.load_row(2), bits_of((a + b) & 0xFFFFFFFF, 32));
  }
}

TEST(CimTile, Validation) {
  CimTile tile(small_tile());
  EXPECT_THROW((void)tile.parallel_compare(bits_of(0, 8)), Error);  // width
  EXPECT_THROW(tile.parallel_add(0, 1, 2, 5), Error);  // 16 % 5 != 0
  EXPECT_THROW(tile.store_row(100, bits_of(0, 16)), Error);
  CimTileConfig bad;
  bad.rows = 0;
  EXPECT_THROW(CimTile{bad}, Error);
  bad.rows = std::size_t{1} << 33;  // rows * row_bits wraps std::size_t
  bad.row_bits = std::size_t{1} << 33;
  EXPECT_THROW(CimTile{bad}, Error);
}

}  // namespace
}  // namespace memcim

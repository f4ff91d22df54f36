#include <gtest/gtest.h>

#include "arch/cim_tile.h"
#include "common/error.h"
#include "device/presets.h"
#include "support/tolerant_compare.h"
#include "workloads/dna.h"

namespace memcim {
namespace {

TEST(TolerantMatch, ErroredReadsRecoveredBySeedsAndTolerance) {
  Rng rng(61);
  const std::string genome = generate_genome(12'000, rng);
  ReadSetParams params;
  params.coverage = 2.0;
  params.read_length = 96;
  params.error_rate = 0.02;
  const auto reads = generate_reads(genome, params, rng);

  const MatchStats exact = match_reads(genome, reads, 16);
  const MatchStats tolerant =
      match_reads_tolerant(genome, reads, 16, /*seeds=*/6,
                           /*max_mismatches=*/6);
  // ~2 errors per 96-char read: the exact pipeline loses a large
  // fraction, the seeded tolerant pipeline recovers nearly all.
  EXPECT_LT(exact.reads_matched, reads.size());
  EXPECT_GT(tolerant.reads_matched, exact.reads_matched);
  EXPECT_GT(static_cast<double>(tolerant.reads_matched),
            0.95 * static_cast<double>(reads.size()));
}

TEST(TolerantMatch, ZeroToleranceEquivalentOnCleanReads) {
  Rng rng(67);
  const std::string genome = generate_genome(6'000, rng);
  ReadSetParams params;
  params.coverage = 1.0;
  params.read_length = 64;
  const auto reads = generate_reads(genome, params, rng);
  const MatchStats exact = match_reads(genome, reads, 16);
  const MatchStats tolerant = match_reads_tolerant(genome, reads, 16, 1, 0);
  EXPECT_EQ(exact.reads_matched, reads.size());
  EXPECT_EQ(tolerant.reads_matched, reads.size());
}

TEST(TolerantMatch, SeedCountValidation) {
  Rng rng(1);
  const std::string genome = generate_genome(1000, rng);
  EXPECT_THROW((void)match_reads_tolerant(genome, {}, 16, 0, 2), Error);
}

// -- tile tolerant compare (tests/support/tolerant_compare.h) -------------------

CimTileConfig tile_cfg() {
  CimTileConfig cfg;
  cfg.rows = 6;
  cfg.row_bits = 16;
  cfg.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

TEST(TolerantCompare, MatchesWithinHammingBudget) {
  CimTile tile(tile_cfg());
  const auto key = bits_of(0b1010101010101010, 16);
  // Rows at Hamming distance 0, 1, 2, 3, 4, 16.
  tile.store_row(0, key);
  auto d1 = key;
  d1[3].flip();
  tile.store_row(1, d1);
  auto d2 = d1;
  d2[7].flip();
  tile.store_row(2, d2);
  auto d3 = d2;
  d3[11].flip();
  tile.store_row(3, d3);
  auto d4 = d3;
  d4[15].flip();
  tile.store_row(4, d4);
  tile.store_row(5, bits_of(0b0101010101010101, 16));

  const auto strict = parallel_compare_tolerant(tile, key, 0).matches;
  EXPECT_EQ(strict, (std::vector<bool>{true, false, false, false, false,
                                       false}));
  const auto loose = parallel_compare_tolerant(tile, key, 2).matches;
  EXPECT_EQ(loose, (std::vector<bool>{true, true, true, false, false,
                                      false}));
  const auto very_loose = parallel_compare_tolerant(tile, key, 4).matches;
  EXPECT_EQ(very_loose, (std::vector<bool>{true, true, true, true, true,
                                           false}));
}

TEST(TolerantCompare, LatencyIsOneXorPassPlusSense) {
  CimTile tile(tile_cfg());
  const auto key = bits_of(0xFFFF, 16);
  for (std::size_t r = 0; r < 6; ++r) tile.store_row(r, key);
  const TolerantCompareResult out = parallel_compare_tolerant(tile, key, 1);
  // (13 XOR steps + 2 sense pulses) × 200 ps, independent of rows/bits.
  EXPECT_NEAR(out.latency.value(), 15 * 200e-12, 1e-15);
}

TEST(TolerantCompare, EnergyGrowsWithMismatches) {
  CimTile a(tile_cfg()), b(tile_cfg());
  const auto key = bits_of(0x0000, 16);
  for (std::size_t r = 0; r < 6; ++r) {
    a.store_row(r, key);                    // zero mismatches
    b.store_row(r, bits_of(0xFFFF, 16));    // 16 mismatches per row
  }
  EXPECT_GT(parallel_compare_tolerant(b, key, 0).energy.value(),
            parallel_compare_tolerant(a, key, 0).energy.value());
}

}  // namespace
}  // namespace memcim

#include "workloads/parallel_add.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"
#include "logic/packed_adder.h"

namespace memcim {
namespace {

TEST(ParallelAdd, AllResultsVerifyAgainstGolden) {
  ParallelAddParams params;
  params.operations = 200;
  params.width = 32;
  params.adders = 32;
  Rng rng(31);
  const auto r = run_parallel_add(params, presets::crs_cell(), rng);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.sums.size(), 200u);
}

TEST(ParallelAdd, PulseAccountingMatchesSchedule) {
  ParallelAddParams params;
  params.operations = 64;
  params.width = 16;
  params.adders = 16;
  Rng rng(37);
  const auto r = run_parallel_add(params, presets::crs_cell(), rng);
  // Every add costs exactly 4N+5 pulses.
  EXPECT_EQ(r.total_pulses, 64u * PackedTcAdderFarm::steps(16));
}

TEST(ParallelAdd, LatencyCountsBatchesNotOperations) {
  ParallelAddParams params;
  params.operations = 100;
  params.width = 8;
  params.adders = 25;  // 4 batches
  Rng rng(41);
  const auto r = run_parallel_add(params, presets::crs_cell(), rng);
  const double one_add =
      static_cast<double>(PackedTcAdderFarm::steps(8)) * 200e-12;
  EXPECT_NEAR(r.latency.value(), 4.0 * one_add, 1e-15);
}

TEST(ParallelAdd, EnergyGrowsWithWork) {
  ParallelAddParams small;
  small.operations = 10;
  small.width = 16;
  small.adders = 10;
  ParallelAddParams large = small;
  large.operations = 100;
  large.adders = 10;
  Rng rng1(43), rng2(43);
  const auto rs = run_parallel_add(small, presets::crs_cell(), rng1);
  const auto rl = run_parallel_add(large, presets::crs_cell(), rng2);
  EXPECT_GT(rl.total_energy.value(), rs.total_energy.value() * 5.0);
}

TEST(ParallelAdd, Validation) {
  Rng rng(1);
  ParallelAddParams bad;
  bad.operations = 0;
  EXPECT_THROW((void)run_parallel_add(bad, presets::crs_cell(), rng), Error);
  bad = ParallelAddParams{};
  bad.width = 64;  // needs headroom for the golden check
  EXPECT_THROW((void)run_parallel_add(bad, presets::crs_cell(), rng), Error);
}

TEST(ParallelAdd, OperandsWiderThanTheWidthThrow) {
  ParallelAddParams params;
  params.operations = 2;
  params.width = 8;
  params.adders = 2;
  // High bits the adder has no cells for: the sum would silently drop
  // them while the farm's books counted their carries.
  EXPECT_THROW((void)run_parallel_add_ops(params, presets::crs_cell(),
                                          {0x1FF, 0xFF00000003}, {0x101, 5}),
               Error);
  EXPECT_THROW((void)run_parallel_add_ops(params, presets::crs_cell(),
                                          {1, 2}, {3, 0x100}),
               Error);
  const ParallelAddResult r = run_parallel_add_ops(
      params, presets::crs_cell(), {0xFF, 0x80}, {0xFF, 0x80});
  EXPECT_EQ(r.sums, (std::vector<std::uint64_t>{0xFE, 0x00}));
  EXPECT_EQ(r.mismatches, 0u);
}

TEST(ParallelAdd, FarmBeyondTheCellCeilingThrowsBeforeAllocating) {
  // 2^31 adders × 65 cells is past kMaxCrsCells; without the ceiling
  // the farm would try to allocate ~1 TiB of books.
  ParallelAddParams params;
  params.operations = 1;
  params.width = 63;
  params.adders = std::size_t{1} << 31;
  EXPECT_THROW((void)run_parallel_add_ops(params, presets::crs_cell(), {1},
                                          {2}),
               Error);
}

}  // namespace
}  // namespace memcim

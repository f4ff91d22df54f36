#include "crossbar/crs_memory.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"

namespace memcim {
namespace {

TEST(CrsMemory, RoundTripRandomPattern) {
  CrsMemory mem(8, 8, presets::crs_cell());
  Rng rng(123);
  std::vector<bool> pattern(64);
  for (std::size_t i = 0; i < 64; ++i) pattern[i] = rng.bernoulli(0.5);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) mem.write(r, c, pattern[r * 8 + c]);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(mem.read(r, c), pattern[r * 8 + c]);
  // And again: write-back preserved everything.
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(mem.read(r, c), pattern[r * 8 + c]);
}

TEST(CrsMemory, DestructiveReadsAreCountedAndRestored) {
  CrsMemory mem(2, 2, presets::crs_cell());
  mem.write(0, 0, false);
  mem.write(0, 1, true);
  EXPECT_EQ(mem.destructive_reads(), 0u);
  EXPECT_FALSE(mem.read(0, 0));  // reading '0' is destructive
  EXPECT_EQ(mem.destructive_reads(), 1u);
  EXPECT_TRUE(mem.read(0, 1));  // reading '1' is not
  EXPECT_EQ(mem.destructive_reads(), 1u);
  EXPECT_FALSE(mem.stored(0, 0));  // written back
  EXPECT_EQ(mem.transitions(0, 0), 2u);  // '0' -> ON -> '0'
}

TEST(CrsMemory, WordOperations) {
  CrsMemory mem(4, 8, presets::crs_cell());
  const std::vector<bool> word{true, false, true, true,
                               false, false, true, false};
  mem.write_word(2, word);
  EXPECT_EQ(mem.read_word(2), word);
  EXPECT_THROW(mem.write_word(2, std::vector<bool>(5)), Error);
}

TEST(CrsMemory, EnergyAndPulseAccounting) {
  CrsMemory mem(1, 1, presets::crs_cell());
  // Initial state is '0'. Writing '1' costs one transition (1 fJ).
  mem.write(0, 0, true);
  EXPECT_DOUBLE_EQ(mem.total_energy().value(), 1e-15);
  EXPECT_EQ(mem.total_pulses(), 1u);
  // Reading '1': one pulse, no transition.
  (void)mem.read(0, 0);
  EXPECT_DOUBLE_EQ(mem.total_energy().value(), 1e-15);
  EXPECT_EQ(mem.total_pulses(), 2u);
  // Write '0' (one transition), then read '0': read pulse switches to
  // ON (transition) and write-back restores (transition) = 2 more.
  mem.write(0, 0, false);
  (void)mem.read(0, 0);
  EXPECT_DOUBLE_EQ(mem.total_energy().value(), 4e-15);
  EXPECT_EQ(mem.total_pulses(), 5u);
  // 5 pulses × 200 ps.
  EXPECT_NEAR(mem.total_time().value(), 1e-9, 1e-15);
}

TEST(CrsMemory, StatsCounters) {
  CrsMemory mem(2, 2, presets::crs_cell());
  mem.write(0, 0, true);
  mem.write(1, 1, false);
  (void)mem.read(0, 0);
  (void)mem.read(1, 1);
  EXPECT_EQ(mem.writes(), 2u);
  EXPECT_EQ(mem.reads(), 2u);
}

TEST(CrsMemory, BoundsChecked) {
  CrsMemory mem(2, 2, presets::crs_cell());
  EXPECT_THROW(mem.write(2, 0, true), Error);
  EXPECT_THROW((void)mem.read(0, 2), Error);
  EXPECT_THROW((void)mem.stored(5, 5), Error);
  EXPECT_THROW(mem.inject_stuck(0, 2, true), Error);
  EXPECT_THROW(CrsMemory(0, 2, presets::crs_cell()), Error);
  // rows * cols wraps std::size_t to 0: the bank must refuse it rather
  // than build empty planes that later writes would index.
  const std::size_t huge = std::size_t{1} << 33;
  EXPECT_THROW(CrsMemory(huge, huge, presets::crs_cell()), Error);
  // No wrap, but more per-cell books than a vector can hold.
  EXPECT_THROW(CrsMemory(std::size_t{1} << 31, std::size_t{1} << 31,
                         presets::crs_cell()),
               Error);
  // Past kMaxCrsCells (2^33 cells, 64 GiB of per-cell books): refused
  // before anything is allocated.
  EXPECT_THROW(CrsMemory(std::size_t{1} << 17, std::size_t{1} << 16,
                         presets::crs_cell()),
               Error);
}

}  // namespace
}  // namespace memcim

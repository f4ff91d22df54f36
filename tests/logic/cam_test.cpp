#include "logic/cam.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <optional>

#include "common/error.h"
#include "device/presets.h"

namespace memcim {
namespace {

CamConfig small_cam() {
  CamConfig cfg;
  cfg.rows = 8;
  cfg.word_bits = 8;
  cfg.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

/// First matching row, if any (priority-encoder behaviour).
std::optional<std::size_t> first_match(CrsCam& cam,
                                       const std::vector<bool>& key) {
  const CamSearchResult result = cam.search(key);
  if (result.matching_rows.empty()) return std::nullopt;
  return result.matching_rows.front();
}

TEST(Cam, ExactMatchSingleRow) {
  CrsCam cam(small_cam());
  cam.write_row(3, bits_of(0xAB, 8));
  cam.write_row(5, bits_of(0xCD, 8));
  const CamSearchResult r = cam.search(bits_of(0xAB, 8));
  EXPECT_EQ(r.matching_rows, (std::vector<std::size_t>{3}));
  EXPECT_EQ(first_match(cam, bits_of(0xCD, 8)), 5u);
  EXPECT_FALSE(first_match(cam, bits_of(0xEE, 8)).has_value());
}

TEST(Cam, MultipleMatchesReturnedInRowOrder) {
  CrsCam cam(small_cam());
  for (std::size_t r : {1u, 4u, 6u}) cam.write_row(r, bits_of(0x3C, 8));
  const CamSearchResult r = cam.search(bits_of(0x3C, 8));
  EXPECT_EQ(r.matching_rows, (std::vector<std::size_t>{1, 4, 6}));
}

// No operation erases a written row: the rows never written are the
// invalid ones, and no key matches them.
TEST(Cam, ErasedAndUnwrittenRowsNeverMatch) {
  CrsCam cam(small_cam());
  const auto r0 = cam.search(bits_of(0x00, 8));
  EXPECT_TRUE(r0.matching_rows.empty());
  cam.write_row(0, bits_of(0x00, 8));
  const auto r1 = cam.search(bits_of(0x00, 8));
  EXPECT_EQ(r1.matching_rows, (std::vector<std::size_t>{0}));
  EXPECT_THROW((void)cam.read_row(1), Error);
}

TEST(Cam, TernaryDontCareBitsMatchBoth) {
  CrsCam cam(small_cam());
  // Row matching 0b0000_10*0: bit1 is don't-care.
  std::vector<CamBit> word(8, CamBit::kZero);
  word[3] = CamBit::kOne;
  word[1] = CamBit::kDontCare;
  cam.write_row_ternary(2, word);
  EXPECT_EQ(first_match(cam, bits_of(0b00001000, 8)), 2u);
  EXPECT_EQ(first_match(cam, bits_of(0b00001010, 8)), 2u);
  EXPECT_FALSE(first_match(cam, bits_of(0b00001100, 8)).has_value());
  const auto readback = cam.read_row(2);
  EXPECT_EQ(readback[1], CamBit::kDontCare);
  EXPECT_EQ(readback[3], CamBit::kOne);
  EXPECT_EQ(readback[0], CamBit::kZero);
}

TEST(Cam, SearchLatencyIndependentOfRowCount) {
  CamConfig big = small_cam();
  big.rows = 128;
  CrsCam small(small_cam()), large(big);
  small.write_row(0, bits_of(1, 8));
  large.write_row(0, bits_of(1, 8));
  const Time t_small = small.search(bits_of(1, 8)).latency;
  const Time t_large = large.search(bits_of(1, 8)).latency;
  EXPECT_EQ(t_small.value(), t_large.value());
  // 2 pulses × 200 ps.
  EXPECT_NEAR(t_small.value(), 400e-12, 1e-15);
}

TEST(Cam, MismatchEnergyScalesWithDischargingCells) {
  CrsCam cam(small_cam());
  cam.write_row(0, bits_of(0x00, 8));
  // Key differing in 1 bit vs 8 bits.
  const Energy e1 = cam.search(bits_of(0x01, 8)).energy;
  const Energy e8 = cam.search(bits_of(0xFF, 8)).energy;
  EXPECT_NEAR(e8.value() / e1.value(), 8.0, 1e-9);
  EXPECT_EQ(cam.searches(), 2u);
  EXPECT_NEAR(cam.total_energy().value(), e1.value() + e8.value(), 1e-24);
}

TEST(Cam, Validation) {
  CrsCam cam(small_cam());
  EXPECT_THROW(cam.write_row(20, bits_of(0, 8)), Error);
  EXPECT_THROW(cam.write_row(0, bits_of(0, 4)), Error);
  EXPECT_THROW((void)cam.search(bits_of(0, 4)), Error);
  CamConfig bad;
  bad.rows = 0;
  EXPECT_THROW(CrsCam{bad}, Error);
  bad = small_cam();
  bad.word_bits = 0;
  EXPECT_THROW(CrsCam{bad}, Error);
  bad = small_cam();
  bad.search_pulses = 0;
  EXPECT_THROW(CrsCam{bad}, Error);
  bad = small_cam();
  bad.cell.v_read = bad.cell.v_th2 * 1.5;  // must lie in (v_th1, v_th2)
  EXPECT_THROW(CrsCam{bad}, Error);
  // Shapes whose cell count overflows a size_t throw before anything is
  // allocated.
  bad = small_cam();
  bad.rows = std::size_t{1} << 40;
  bad.word_bits = std::size_t{1} << 30;
  EXPECT_THROW(CrsCam{bad}, Error);
  bad.rows = std::numeric_limits<std::size_t>::max();
  bad.word_bits = 2;
  EXPECT_THROW(CrsCam{bad}, Error);
  // No overflow, but 2^59 cells: past kMaxCrsCells, refused before the
  // planes are allocated.
  bad.rows = std::size_t{1} << 40;
  bad.word_bits = std::size_t{1} << 19;
  EXPECT_THROW(CrsCam{bad}, Error);
}

}  // namespace
}  // namespace memcim

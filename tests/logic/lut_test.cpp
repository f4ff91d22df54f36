#include "support/lut.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"

namespace memcim {
namespace {

TEST(Lut, TwoInputGatesViaLookup) {
  CrsLut lut(2, 1, presets::crs_cell());
  lut.program(0, [](std::uint64_t m) {  // XOR truth table
    return ((m & 1u) != 0) != ((m & 2u) != 0);
  });
  EXPECT_FALSE(lut.evaluate_single(0b00));
  EXPECT_TRUE(lut.evaluate_single(0b01));
  EXPECT_TRUE(lut.evaluate_single(0b10));
  EXPECT_FALSE(lut.evaluate_single(0b11));
}

TEST(Lut, MultiOutputFullAdder) {
  // 3 inputs (a, b, cin) → 2 outputs (sum, carry).
  CrsLut lut(3, 2, presets::crs_cell());
  lut.program_all([](std::uint64_t m) {
    const int total = int(m & 1u) + int((m >> 1) & 1u) + int((m >> 2) & 1u);
    return std::vector<bool>{total % 2 == 1, total >= 2};
  });
  for (std::uint64_t m = 0; m < 8; ++m) {
    const int total = int(m & 1u) + int((m >> 1) & 1u) + int((m >> 2) & 1u);
    const auto out = lut.evaluate(m);
    EXPECT_EQ(out[0], total % 2 == 1) << m;
    EXPECT_EQ(out[1], total >= 2) << m;
  }
}

TEST(Lut, RepeatedEvaluationIsStable) {
  // CRS destructive reads must be written back inside the bank.
  CrsLut lut(2, 1, presets::crs_cell());
  lut.program(0, [](std::uint64_t m) { return m == 2; });
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_TRUE(lut.evaluate_single(2));
    EXPECT_FALSE(lut.evaluate_single(1));
  }
  // Destructive '0' reads happened and were restored.
  EXPECT_GT(lut.memory().destructive_reads(), 0u);
}

TEST(Lut, SixInputParity) {
  CrsLut lut(6, 1, presets::crs_cell());
  lut.program(0, [](std::uint64_t m) { return __builtin_parityll(m) != 0; });
  for (std::uint64_t m = 0; m < 64; ++m)
    EXPECT_EQ(lut.evaluate_single(m), __builtin_parityll(m) != 0) << m;
}

TEST(Lut, CellCountDirectVsDecomposed) {
  // Direct 2^k scaling under the max size.
  EXPECT_EQ(lut_cells_for_function(4, 1, 6), 16u);
  EXPECT_EQ(lut_cells_for_function(6, 1, 6), 64u);
  EXPECT_EQ(lut_cells_for_function(6, 2, 6), 128u);
  // Above the cap: Shannon decomposition beats direct materialization.
  const std::size_t direct_10 = std::size_t{1} << 10;  // 1024 if allowed
  const std::size_t decomposed_10 = lut_cells_for_function(10, 1, 6);
  EXPECT_GT(decomposed_10, 64u);
  EXPECT_LT(decomposed_10, 4 * direct_10);
  // Monotone in inputs.
  EXPECT_GT(lut_cells_for_function(12, 1, 6), decomposed_10);
}

TEST(Lut, Validation) {
  EXPECT_THROW(CrsLut(0, 1, presets::crs_cell()), Error);
  EXPECT_THROW(CrsLut(21, 1, presets::crs_cell()), Error);
  CrsLut lut(2, 1, presets::crs_cell());
  EXPECT_THROW((void)lut.evaluate(4), Error);
  EXPECT_THROW(lut.program(1, [](std::uint64_t) { return true; }), Error);
  CrsLut multi(2, 2, presets::crs_cell());
  EXPECT_THROW((void)multi.evaluate_single(0), Error);
}

}  // namespace
}  // namespace memcim

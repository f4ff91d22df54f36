// Golden-vector differential tests for the two adder designs, the IMPLY
// ripple adder and the CRS TC-adder farm: every sum is checked against
// plain integer addition — exhaustively over all 8-bit operand pairs,
// and with seeded-random 32-bit pairs.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/crs_fabric.h"
#include "logic/ideal_fabric.h"
#include "logic/packed_adder.h"

namespace memcim {
namespace {

TEST(AdderGolden, ImplyAdderExhaustive8Bit) {
  for (std::uint64_t a = 0; a < 256; ++a)
    for (std::uint64_t b = 0; b < 256; ++b) {
      IdealFabric fabric;
      ASSERT_EQ(add_integers(fabric, a, b, 8), (a + b) & 0xFFu)
          << a << " + " << b;
    }
}

TEST(AdderGolden, TcAdderExhaustive8Bit) {
  // One physical adder reused across all pairs: the pulse schedule must
  // leave no state behind that corrupts the next add.
  PackedTcAdderFarm adder(1, 8, presets::crs_cell());
  for (std::uint64_t a = 0; a < 256; ++a)
    for (std::uint64_t b = 0; b < 256; ++b) {
      const PackedAddOutcome r = adder.run({a}, {b});
      ASSERT_EQ(r.sums.front(), (a + b) & 0xFFu) << a << " + " << b;
      ASSERT_EQ(adder.carry_out(0), (a + b) > 0xFFu) << a << " + " << b;
    }
}

TEST(AdderGolden, ImplyAdderSeededRandom32Bit) {
  Rng rng(0xADDE);
  const std::uint64_t mask = 0xFFFFFFFFull;
  for (int trial = 0; trial < 64; ++trial) {
    const auto a = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    const auto b = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    IdealFabric fabric;
    ASSERT_EQ(add_integers(fabric, a, b, 32), (a + b) & mask)
        << a << " + " << b;
  }
}

TEST(AdderGolden, CrsFabricSeededRandom32Bit) {
  Rng rng(0xADDF);
  const std::uint64_t mask = 0xFFFFFFFFull;
  for (int trial = 0; trial < 16; ++trial) {
    const auto a = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    const auto b = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    CrsFabric fabric(presets::crs_cell());
    ASSERT_EQ(add_integers(fabric, a, b, 32), (a + b) & mask)
        << a << " + " << b;
  }
}

TEST(AdderGolden, TcAdderSeededRandom32Bit) {
  Rng rng(0xADE0);
  const std::uint64_t mask = 0xFFFFFFFFull;
  PackedTcAdderFarm adder(1, 32, presets::crs_cell());
  for (int trial = 0; trial < 256; ++trial) {
    const auto a = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    const auto b = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    const PackedAddOutcome r = adder.run({a}, {b});
    ASSERT_EQ(r.sums.front(), (a + b) & mask) << a << " + " << b;
    ASSERT_EQ(adder.carry_out(0), (a + b) > mask) << a << " + " << b;
  }
}

TEST(AdderGolden, CrsFabricExhaustive8BitSampled) {
  // CRS pulses are ~40× pricier than ideal ops; cover the exhaustive
  // grid on a coprime stride so every residue class is visited.
  for (std::uint64_t i = 0; i < 256 * 256; i += 251) {
    const std::uint64_t a = i >> 8, b = i & 0xFFu;
    CrsFabric fabric(presets::crs_cell());
    ASSERT_EQ(add_integers(fabric, a, b, 8), (a + b) & 0xFFu)
        << a << " + " << b;
  }
}

}  // namespace
}  // namespace memcim

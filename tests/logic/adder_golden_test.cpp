// Golden-vector differential tests for the two adder designs, the IMPLY
// ripple adder and the CRS TC-adder farm: every sum is checked against
// plain integer addition — exhaustively over all 8-bit operand pairs,
// and with seeded-random 32-bit pairs.  A batch-sized farm's sums,
// energies and transitions are also pinned to recorded constants.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

/// FNV-1a over the eight bytes of `value`, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 0x0000'0100'0000'01B3u;
  }
  return hash;
}

TEST(AdderGolden, LargeFarmMatchesTheParentBitForBit) {
  // The batch workload's farm shape, reused over three runs, so the
  // later runs start from counts far past a fresh energy table.  The
  // constants were recorded from the farm's earlier per-slot fold (one
  // slot's ops at a time, one lazily grown energy table per lane
  // block).
  struct Want {
    std::uint64_t sums;
    std::uint64_t energies;
    std::uint64_t transitions;
  };
  constexpr Want kWant[] = {
      {0xCC3C'F1ED'BE76'BD55u, 0x454A'E33A'6BD6'C3DBu, 1'275'605},
      {0xA066'4490'6BD2'AD6Au, 0x7561'BA5A'0C13'7E91u, 1'278'654},
      {0xA16D'99D6'224A'1E60u, 0x6CAC'4FEC'FF68'2443u, 1'280'944},
  };
  constexpr std::size_t kOps = 20'000;
  const std::uint64_t mask = 0xFFFFFFFFu;
  PackedTcAdderFarm farm(256, 32, presets::crs_cell());
  Rng rng(0xFA12);
  for (const Want& want : kWant) {
    std::vector<std::uint64_t> a(kOps), b(kOps);
    for (std::size_t op = 0; op < kOps; ++op) {
      a[op] = rng.engine()() & mask;
      b[op] = rng.engine()() & mask;
    }
    const PackedAddOutcome got = farm.run(a, b);
    std::uint64_t sums = 0xCBF2'9CE4'8422'2325u;
    std::uint64_t energies = sums;
    for (std::size_t op = 0; op < kOps; ++op) {
      ASSERT_EQ(got.sums[op], (a[op] + b[op]) & mask) << "op " << op;
      sums = fnv1a(sums, got.sums[op]);
      energies = fnv1a(energies, std::bit_cast<std::uint64_t>(got.energies[op]));
    }
    EXPECT_EQ(sums, want.sums);
    EXPECT_EQ(energies, want.energies);
    EXPECT_EQ(got.transitions, want.transitions);
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

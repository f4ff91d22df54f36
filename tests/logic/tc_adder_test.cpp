// The paper's TC-adder properties (Table 1, ref [59]) on the production
// model, PackedTcAdderFarm.  The carry-in cases run on the CrsTcAdder
// pulse walk (tests/support/), the only model that takes a carry-in.
#include "logic/packed_adder.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "support/crs_tc_adder.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

/// One addition on slot 0 of a one-slot farm.
std::uint64_t add_one(PackedTcAdderFarm& adder, std::uint64_t a,
                      std::uint64_t b, double* energy = nullptr) {
  const PackedAddOutcome r = adder.run({a}, {b});
  if (energy != nullptr) *energy = r.energies.front();
  return r.sums.front();
}

TEST(TcAdder, PaperCostSheet) {
  // Table 1: 34 devices (N+2, N=32), 133 steps (4N+5, N=32).
  EXPECT_EQ(PackedTcAdderFarm::devices(32), 34u);
  EXPECT_EQ(PackedTcAdderFarm::steps(32), 133u);
}

TEST(TcAdder, ExhaustiveFourBitWithBothCarries) {
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      for (bool cin : {false, true}) {
        CrsTcAdder adder(4, presets::crs_cell());
        const TcAdderResult r = adder.add(a, b, cin);
        const std::uint64_t expect = a + b + (cin ? 1 : 0);
        EXPECT_EQ(r.sum, expect & 0xFu) << a << '+' << b << '+' << cin;
        EXPECT_EQ(r.carry_out, expect > 0xFu) << a << '+' << b << '+' << cin;
      }
}

TEST(TcAdder, PulseCountIsExactlyFourNPlusFive) {
  const bool was = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Counter& pulses =
      telemetry::Registry::global().counter("crs_cell.pulses");
  for (std::size_t width = 1; width <= 64; ++width) {
    PackedTcAdderFarm adder(1, width, presets::crs_cell());
    const std::uint64_t all_ones =
        width == 64 ? ~0ull : (1ull << width) - 1;
    const std::uint64_t before = pulses.value();
    (void)add_one(adder, 3 & all_ones, 5 & all_ones);
    EXPECT_EQ(pulses.value() - before, 4 * width + 5) << "width " << width;
    // Schedule is constant-time: a different operand pair costs the same.
    const std::uint64_t mid = pulses.value();
    (void)add_one(adder, all_ones, 1);
    EXPECT_EQ(pulses.value() - mid, 4 * width + 5) << "width " << width;
  }
  telemetry::set_enabled(was);
}

TEST(TcAdder, LatencyMatchesTable1For32Bit) {
  const PackedTcAdderFarm adder(1, 32, presets::crs_cell());
  // 133 steps × 200 ps = 26.6 ns (the paper's "16600 ps" is a typo for
  // 133·200 ps; see DESIGN.md §5).
  EXPECT_NEAR(adder.add_latency().value(), 26.6e-9, 1e-12);
}

TEST(TcAdder, RandomWideAdditions) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 31));
    const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 31));
    PackedTcAdderFarm adder(1, 32, presets::crs_cell());
    EXPECT_EQ(add_one(adder, a, b), (a + b) & 0xFFFFFFFFull);
    EXPECT_EQ(adder.carry_out(0), (a + b) > 0xFFFFFFFFull);
  }
}

TEST(TcAdder, SumStaysResidentInCells) {
  PackedTcAdderFarm adder(1, 8, presets::crs_cell());
  (void)add_one(adder, 100, 55);
  EXPECT_EQ(adder.stored_sum(0), 155u);
  // Reading stored_sum is sense-side: issuing it twice changes nothing.
  EXPECT_EQ(adder.stored_sum(0), 155u);
}

TEST(TcAdder, EnergyCountsOnlySwitchingEvents) {
  PackedTcAdderFarm adder(1, 8, presets::crs_cell());
  double e1 = 0.0, e2 = 0.0;
  // 0 + 0: no sum cell ever sets, no carry forms; only the prologue /
  // init writes that actually change state cost energy.
  (void)add_one(adder, 0, 0, &e1);
  (void)add_one(adder, 255, 255, &e2);
  EXPECT_GT(e2, e1);
  EXPECT_GT(e2, 0.0);
}

TEST(TcAdder, BackToBackAdditionsIndependent) {
  PackedTcAdderFarm adder(1, 16, presets::crs_cell());
  EXPECT_EQ(add_one(adder, 1000, 2000), 3000u);
  EXPECT_EQ(add_one(adder, 65535, 1), 0u);
  EXPECT_EQ(add_one(adder, 0, 42), 42u);
}

TEST(TcAdder, WidthValidation) {
  EXPECT_THROW(PackedTcAdderFarm(1, 0, presets::crs_cell()), Error);
  EXPECT_THROW(PackedTcAdderFarm(1, 65, presets::crs_cell()), Error);
  EXPECT_THROW(PackedTcAdderFarm(0, 8, presets::crs_cell()), Error);
  // Operands must fit the width.
  PackedTcAdderFarm adder(1, 8, presets::crs_cell());
  EXPECT_THROW((void)adder.run({256}, {0}), Error);
}

}  // namespace
}  // namespace memcim

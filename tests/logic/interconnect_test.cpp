#include "support/interconnect.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"

namespace memcim {
namespace {

TEST(Interconnect, ConnectDisconnectRoundTrip) {
  ProgrammableInterconnect ic(4, 4, presets::crs_cell());
  EXPECT_FALSE(ic.connected(1, 2));
  ic.connect(1, 2);
  EXPECT_TRUE(ic.connected(1, 2));
  ic.disconnect(1, 2);
  EXPECT_FALSE(ic.connected(1, 2));
}

TEST(Interconnect, PropagateFollowsRouting) {
  ProgrammableInterconnect ic(4, 4, presets::crs_cell());
  ic.program_routing({2, 0, 3, 1});  // a permutation
  EXPECT_TRUE(ic.is_point_to_point());
  const auto out = ic.propagate({true, false, true, false});
  // input0(1)→out2, input1(0)→out0, input2(1)→out3, input3(0)→out1.
  EXPECT_EQ(out, (std::vector<bool>{false, false, true, true}));
}

TEST(Interconnect, WiredOrCombinesDrivers) {
  ProgrammableInterconnect ic(3, 1, presets::crs_cell());
  ic.connect(0, 0);
  ic.connect(2, 0);
  EXPECT_FALSE(ic.is_point_to_point());
  EXPECT_FALSE(ic.propagate({false, true, false})[0]);  // only 1 drives, not connected
  EXPECT_TRUE(ic.propagate({true, false, false})[0]);
  EXPECT_TRUE(ic.propagate({false, false, true})[0]);
}

TEST(Interconnect, ReprogrammingReplacesRoute) {
  ProgrammableInterconnect ic(2, 2, presets::crs_cell());
  ic.program_routing({0, 1});
  ic.program_routing({1, 0});  // swap
  const auto out = ic.propagate({true, false});
  EXPECT_EQ(out, (std::vector<bool>{false, true}));
  EXPECT_TRUE(ic.is_point_to_point());
}

TEST(Interconnect, ProgrammingCostsArePhysical) {
  ProgrammableInterconnect ic(2, 2, presets::crs_cell());
  EXPECT_EQ(ic.programming_pulses(), 0u);
  ic.connect(0, 0);
  EXPECT_EQ(ic.programming_pulses(), 1u);
  EXPECT_DOUBLE_EQ(ic.programming_energy().value(), 1e-15);  // one transition
  ic.connect(0, 0);  // already LRS: pulse spent, no switching energy
  EXPECT_EQ(ic.programming_pulses(), 2u);
  EXPECT_DOUBLE_EQ(ic.programming_energy().value(), 1e-15);
}

TEST(Interconnect, Validation) {
  ProgrammableInterconnect ic(2, 3, presets::crs_cell());
  EXPECT_THROW(ic.connect(2, 0), Error);
  EXPECT_THROW(ic.connect(0, 3), Error);
  EXPECT_THROW((void)ic.propagate({true}), Error);
  EXPECT_THROW(ic.program_routing({0}), Error);
  EXPECT_THROW(ProgrammableInterconnect(0, 1, presets::crs_cell()), Error);
}

// ---------------------------------------------------------------------------
// ResistivePla
// ---------------------------------------------------------------------------

TEST(Pla, SingleProductIsAndOfLiterals) {
  ResistivePla pla(3, 1, 1, presets::crs_cell());
  // term0 = x0 AND NOT x2
  pla.program_product(0, {{0, true}, {2, false}});
  pla.attach_product(0, 0);
  for (int m = 0; m < 8; ++m) {
    const bool x0 = m & 1, x2 = m & 4;
    const std::vector<bool> in{x0, bool(m & 2), x2};
    EXPECT_EQ(pla.evaluate(in)[0], x0 && !x2) << m;
  }
}

TEST(Pla, SumOfProductsXor) {
  // XOR = x0·¬x1 + ¬x0·x1.
  ResistivePla pla(2, 2, 1, presets::crs_cell());
  pla.program_product(0, {{0, true}, {1, false}});
  pla.program_product(1, {{0, false}, {1, true}});
  pla.attach_product(0, 0);
  pla.attach_product(1, 0);
  for (int m = 0; m < 4; ++m) {
    const bool a = m & 1, b = m & 2;
    EXPECT_EQ(pla.evaluate({a, b})[0], a != b) << m;
  }
}

TEST(Pla, MultiOutputSharedProducts) {
  // Full adder on a PLA: sum and carry share the product plane.
  ResistivePla pla(3, 7, 2, presets::crs_cell());
  // Sum = odd parity: 4 minterms.
  const std::vector<std::vector<PlaLiteral>> sum_terms = {
      {{0, true}, {1, false}, {2, false}},
      {{0, false}, {1, true}, {2, false}},
      {{0, false}, {1, false}, {2, true}},
      {{0, true}, {1, true}, {2, true}},
  };
  for (std::size_t t = 0; t < 4; ++t) {
    pla.program_product(t, sum_terms[t]);
    pla.attach_product(t, 0);
  }
  // Carry = majority: ab + ac + bc.
  pla.program_product(4, {{0, true}, {1, true}});
  pla.program_product(5, {{0, true}, {2, true}});
  pla.program_product(6, {{1, true}, {2, true}});
  for (std::size_t t = 4; t < 7; ++t) pla.attach_product(t, 1);
  // The shared minterm abc also feeds carry through terms 4-6.
  for (int m = 0; m < 8; ++m) {
    const int total = (m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
    const std::vector<bool> in{bool(m & 1), bool(m & 2), bool(m & 4)};
    const auto out = pla.evaluate(in);
    EXPECT_EQ(out[0], total % 2 == 1) << m;
    EXPECT_EQ(out[1], total >= 2) << m;
  }
}

TEST(Pla, EmptyProductIsTautology) {
  ResistivePla pla(2, 1, 1, presets::crs_cell());
  pla.program_product(0, {});
  pla.attach_product(0, 0);
  for (int m = 0; m < 4; ++m)
    EXPECT_TRUE(pla.evaluate({bool(m & 1), bool(m & 2)})[0]);
}

TEST(Pla, ReprogrammingChangesFunction) {
  ResistivePla pla(2, 1, 1, presets::crs_cell());
  pla.program_product(0, {{0, true}, {1, true}});  // AND
  pla.attach_product(0, 0);
  EXPECT_FALSE(pla.evaluate({true, false})[0]);
  pla.program_product(0, {{0, true}});  // now just x0
  EXPECT_TRUE(pla.evaluate({true, false})[0]);
  EXPECT_GT(pla.programming_energy().value(), 0.0);
}

TEST(Pla, Validation) {
  ResistivePla pla(2, 1, 1, presets::crs_cell());
  EXPECT_THROW(pla.program_product(1, {}), Error);
  EXPECT_THROW(pla.program_product(0, {{5, true}}), Error);
  EXPECT_THROW(pla.attach_product(0, 3), Error);
  EXPECT_THROW((void)pla.evaluate({true}), Error);
}

}  // namespace
}  // namespace memcim

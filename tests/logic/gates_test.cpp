#include "logic/gates.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "logic/ideal_fabric.h"

namespace memcim {
namespace {

using namespace memcim::literals;

// Helper: run a 2-input gate for one input combination on a fresh
// fabric and return (result, steps, new registers).
struct GateRun {
  bool value;
  std::uint64_t steps;
  std::size_t registers;
};

template <typename Gate>
GateRun run_gate(Gate gate, bool a, bool b) {
  IdealFabric f;
  const Reg ra = f.alloc();
  const Reg rb = f.alloc();
  f.set(ra, a);
  f.set(rb, b);
  f.reset_counters();
  const std::size_t regs_before = f.size();
  const Reg out = gate(f, ra, rb);
  return {f.read(out), f.steps(), f.size() - regs_before};
}

TEST(Gates, NotTruthAndCost) {
  for (bool a : {false, true}) {
    IdealFabric f;
    const Reg ra = f.alloc();
    f.set(ra, a);
    f.reset_counters();
    const Reg out = gate_not(f, ra);
    EXPECT_EQ(f.read(out), !a);
    EXPECT_EQ(f.steps(), cost_not().steps);
    EXPECT_EQ(f.read(ra), a) << "input must be preserved";
  }
}

TEST(Gates, CopyTruthAndCost) {
  for (bool a : {false, true}) {
    IdealFabric f;
    const Reg ra = f.alloc();
    f.set(ra, a);
    f.reset_counters();
    const Reg out = gate_copy(f, ra);
    EXPECT_EQ(f.read(out), a);
    EXPECT_EQ(f.steps(), cost_copy().steps);
  }
}

// Parameterized truth-table sweep over all two-input gates and all
// four input combinations.
struct GateCase {
  const char* name;
  Reg (*gate)(Fabric&, Reg, Reg);
  bool (*truth)(bool, bool);
  GateCost (*cost)();
  bool preserves_inputs;
};

// Print a case as its gate name. The default byte dump holds function
// and string pointers, so under address-space randomisation it would
// give the discovered test a new name on every build.
void PrintTo(const GateCase& gc, std::ostream* os) { *os << gc.name; }

const GateCase kGateCases[] = {
    {"nand", gate_nand, [](bool a, bool b) { return !(a && b); }, cost_nand,
     true},
    {"and", gate_and, [](bool a, bool b) { return a && b; }, cost_and, true},
    {"or", gate_or, [](bool a, bool b) { return a || b; }, cost_or, true},
    {"nor", gate_nor, [](bool a, bool b) { return !(a || b); }, cost_nor,
     true},
    {"xor_destructive", gate_xor_destructive,
     [](bool a, bool b) { return a != b; }, cost_xor_destructive, false},
    {"xor", gate_xor, [](bool a, bool b) { return a != b; }, cost_xor, true},
    {"xnor", gate_xnor, [](bool a, bool b) { return a == b; }, cost_xnor,
     true},
};

class GateTruth : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruth, AllInputCombinations) {
  const GateCase& gc = GetParam();
  for (bool a : {false, true})
    for (bool b : {false, true}) {
      IdealFabric f;
      const Reg ra = f.alloc();
      const Reg rb = f.alloc();
      f.set(ra, a);
      f.set(rb, b);
      f.reset_counters();
      const std::size_t regs_before = f.size();
      const Reg out = gc.gate(f, ra, rb);
      EXPECT_EQ(f.read(out), gc.truth(a, b))
          << gc.name << '(' << a << ',' << b << ')';
      EXPECT_EQ(f.steps(), gc.cost().steps) << gc.name << " step count";
      EXPECT_EQ(f.size() - regs_before, gc.cost().registers)
          << gc.name << " register count";
      EXPECT_EQ(f.read(ra), a) << gc.name << " must preserve input a";
      if (gc.preserves_inputs) {
        EXPECT_EQ(f.read(rb), b) << gc.name << " must preserve input b";
      }
    }
}

INSTANTIATE_TEST_SUITE_P(AllGates, GateTruth, ::testing::ValuesIn(kGateCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

TEST(Gates, PaperXorStepCountIsThirteen) {
  // Table 1: "an XOR takes 13 steps".
  EXPECT_EQ(cost_xor().steps, 13u);
  EXPECT_EQ(cost_xor().registers, 5u);
}

TEST(Gates, NandIsThreeSteps) {
  // Table 1: "an NAND takes 3 steps".
  EXPECT_EQ(cost_nand().steps, 3u);
}

TEST(Gates, WritesEqualStepsOnSingleStepBackend) {
  // Every primitive is one device write on the IMPLY backend.
  IdealFabric f;
  const Reg a = f.alloc();
  const Reg b = f.alloc();
  f.set(a, true);
  f.set(b, false);
  f.reset_counters();
  (void)gate_xor(f, a, b);
  EXPECT_EQ(f.steps(), f.writes());
}

TEST(Gates, LatencyAndEnergyFollowCostModel) {
  LogicCostModel cost;
  cost.t_step = 200.0_ps;
  cost.e_write = 1.0_fJ;
  IdealFabric f(cost);
  const Reg a = f.alloc();
  const Reg b = f.alloc();
  f.set(a, true);
  f.set(b, true);
  f.reset_counters();
  (void)gate_nand(f, a, b);
  EXPECT_NEAR(f.latency().value(), 3 * 200e-12, 1e-18);
  EXPECT_NEAR(f.energy().value(), 3 * 1e-15, 1e-24);
}

TEST(Gates, UnallocatedRegisterThrows) {
  IdealFabric f;
  const Reg a = f.alloc();
  EXPECT_THROW(f.set(a + 1, true), Error);
  EXPECT_THROW(f.imply(a, a + 5), Error);
  EXPECT_THROW((void)f.read(a + 1), Error);
}

}  // namespace
}  // namespace memcim

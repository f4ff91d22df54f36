#include "logic/program.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/comparator.h"
#include "logic/crs_fabric.h"
#include "logic/device_fabric.h"
#include "logic/gates.h"
#include "logic/ideal_fabric.h"
#include "support/program_golden.h"

namespace memcim {
namespace {

CimProgram xor_program() {
  return record_program(2, [](Fabric& f, const std::vector<Reg>& in) {
    return gate_xor(f, in[0], in[1]);
  });
}

TEST(Program, RecordingCapturesGateSequence) {
  const CimProgram p = xor_program();
  EXPECT_EQ(p.inputs, 2u);
  // 13 micro-ops (the XOR step count) — loading inputs is the runner's
  // job, not the program's.
  EXPECT_EQ(p.length(), 13u);
  EXPECT_EQ(p.registers, 2u + cost_xor().registers);
}

TEST(Program, ReplayMatchesDirectExecution) {
  const CimProgram p = xor_program();
  for (bool a : {false, true})
    for (bool b : {false, true}) {
      IdealFabric f;
      EXPECT_EQ(run_program(p, f, {a, b}), a != b) << a << ',' << b;
    }
}

TEST(Program, ReplayOnAllThreeBackends) {
  const CimProgram p = record_program(2, [](Fabric& f, const std::vector<Reg>& in) {
    return gate_nand(f, in[0], in[1]);
  });
  for (bool a : {false, true})
    for (bool b : {false, true}) {
      IdealFabric ideal;
      EXPECT_EQ(run_program(p, ideal, {a, b}), !(a && b));
      CrsFabric crs(presets::crs_cell());
      EXPECT_EQ(run_program(p, crs, {a, b}), !(a && b));
      DeviceFabricParams dp;
      dp.device = presets::vcm_taox_logic();
      DeviceFabric dev(dp);
      EXPECT_EQ(run_program(p, dev, {a, b}), !(a && b));
    }
}

TEST(Program, RecordedAdderComputesAcrossReplays) {
  const CimProgram adder4 =
      record_program(8, [](Fabric& f, const std::vector<Reg>& in) {
        const std::span<const Reg> a(in.data(), 4);
        const std::span<const Reg> b(in.data() + 4, 4);
        // Result register of the LSB… we need the whole sum; wrap into
        // one output by comparing against a constant is overkill — use
        // the carry-out as the probe output and read sums via the
        // window in the SIMD test below.
        return ripple_adder(f, a, b).carry_out;
      });
  // carry(15 + 1) = 1, carry(7 + 1) = 0 within 4 bits.
  IdealFabric f1, f2;
  EXPECT_TRUE(run_program(adder4, f1,
                          {true, true, true, true, true, false, false, false}));
  EXPECT_FALSE(run_program(adder4, f2,
                           {true, true, true, false, true, false, false, false}));
}

TEST(Program, SimdRunSharesLatencyAcrossWindows) {
  const CimProgram p = xor_program();
  IdealFabric f;
  std::vector<std::vector<bool>> windows{
      {false, false}, {false, true}, {true, false}, {true, true}};
  const SimdRunResult r = run_program_simd(p, f, windows);
  ASSERT_EQ(r.outputs.size(), 4u);
  EXPECT_EQ(r.outputs, (std::vector<bool>{false, true, true, false}));
  // Latency = inputs (2 sets) + 13 program steps, NOT ×4 windows.
  EXPECT_NEAR(r.latency.value(), 15 * 200e-12, 1e-15);
  // Energy covers all four windows.
  EXPECT_NEAR(r.energy.value(), 4 * 15 * 1e-15, 1e-24);
  EXPECT_EQ(r.writes, 60u);
}

TEST(Program, SimdOnCrsBackend) {
  const CimProgram p = record_program(4, [](Fabric& f, const std::vector<Reg>& in) {
    return word_equality(f, std::span<const Reg>(in.data(), 2),
                         std::span<const Reg>(in.data() + 2, 2));
  });
  CrsFabric crs(presets::crs_cell());
  const SimdRunResult r = run_program_simd(
      p, crs,
      {{true, false, true, false},    // equal words
       {true, false, false, false},   // differ
       {false, false, false, false}});
  EXPECT_EQ(r.outputs, (std::vector<bool>{true, false, true}));
}

TEST(Program, Validation) {
  const CimProgram p = xor_program();
  IdealFabric f;
  EXPECT_THROW((void)run_program(p, f, {true}), Error);  // arity
  EXPECT_THROW((void)run_program_simd(p, f, {}), Error);
  CimProgram empty;
  EXPECT_THROW((void)run_program(empty, f, {}), Error);
}

}  // namespace
}  // namespace memcim

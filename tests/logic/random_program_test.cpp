// Randomized equivalence: arbitrary IMP micro-programs executed on the
// ideal fabric and on the CRS fabric must agree bit-for-bit — both
// implement the same implication algebra, so any divergence is a
// backend bug.  (The device-level fabric is checked separately through
// the gate library; raw random IMP streams can exceed its analog creep
// budget by construction.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "device/presets.h"
#include "fault/fabric_faults.h"
#include "fault/golden.h"
#include "support/program_golden.h"
#include "logic/crs_fabric.h"
#include "logic/ideal_fabric.h"
#include "logic/program.h"

namespace memcim {
namespace {

CimProgram random_program(std::size_t inputs, std::size_t scratch,
                          std::size_t length, Rng& rng) {
  CimProgram p;
  p.inputs = inputs;
  p.registers = inputs + scratch;
  for (std::size_t i = 0; i < length; ++i) {
    CimInstruction inst;
    const auto pick_reg = [&] {
      return static_cast<Reg>(rng.uniform_int(
          0, static_cast<std::int64_t>(p.registers - 1)));
    };
    const double roll = rng.uniform();
    if (roll < 0.2) {
      inst.op = CimOp::kSetFalse;
      inst.a = pick_reg();
    } else if (roll < 0.4) {
      inst.op = CimOp::kSetTrue;
      inst.a = pick_reg();
    } else {
      inst.op = CimOp::kImply;
      inst.a = pick_reg();
      do {
        inst.b = pick_reg();
      } while (inst.b == inst.a);
    }
    p.instructions.push_back(inst);
  }
  p.output = static_cast<Reg>(
      rng.uniform_int(0, static_cast<std::int64_t>(p.registers - 1)));
  return p;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, IdealAndCrsBackendsAgree) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const CimProgram p = random_program(3, 4, 30, rng);
    for (std::uint64_t in = 0; in < 8; ++in) {
      const std::vector<bool> inputs{bool(in & 1), bool(in & 2), bool(in & 4)};
      IdealFabric ideal;
      CrsFabric crs(presets::crs_cell());
      const bool expect = run_program(p, ideal, inputs);
      EXPECT_EQ(run_program(p, crs, inputs), expect)
          << "trial " << trial << " inputs " << in;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto& tp_info) {
                           return "seed" + std::to_string(tp_info.param);
                         });

// Seeded property test with divergence shrinking: run random programs
// against stuck-at-corrupted twins; whenever any prefix diverges, the
// shrinker must name the *minimal* failing prefix — verified by
// replaying L−1 (must agree) and L (must differ) directly.
TEST(RandomPrograms, ShrinkerReportsMinimalFailingPrefix) {
  Rng rng(0x5321);
  std::size_t diverged = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const CimProgram p = random_program(3, 4, 30, rng);
    const std::uint64_t plan_seed = rng.engine()();
    const auto make_reference = [] {
      return std::unique_ptr<Fabric>(std::make_unique<IdealFabric>());
    };
    // Each subject replay gets its own injector (kept alive here);
    // identical plans, so every replay sees the same stuck registers.
    std::vector<std::unique_ptr<FabricFaultInjector>> injectors;
    const auto make_subject = [&] {
      FaultPlan plan(p.registers, plan_seed);
      plan.arm({FaultKind::kStuckAtLrs, 0.2, 1.0, 0.0});
      plan.arm({FaultKind::kStuckAtHrs, 0.2, 1.0, 0.0});
      injectors.push_back(
          std::make_unique<FabricFaultInjector>(std::move(plan)));
      auto fabric = std::make_unique<IdealFabric>();
      fabric->attach_faults(injectors.back().get());
      return std::unique_ptr<Fabric>(std::move(fabric));
    };

    for (std::uint64_t in = 0; in < 8; ++in) {
      const std::vector<bool> inputs{bool(in & 1), bool(in & 2), bool(in & 4)};
      const auto prefix =
          minimal_failing_prefix(p, inputs, make_reference, make_subject);
      if (!prefix.has_value()) continue;  // faults masked for this input
      ++diverged;
      const auto replay = [&](std::size_t length) {
        const auto ref = make_reference();
        const auto sub = make_subject();
        return run_program_prefix(p, *ref, inputs, length) !=
               run_program_prefix(p, *sub, inputs, length);
      };
      EXPECT_TRUE(replay(*prefix)) << "trial " << trial << " input " << in;
      if (*prefix > 0) {
        EXPECT_FALSE(replay(*prefix - 1))
            << "not minimal: trial " << trial << " input " << in;
      }
    }
  }
  // With 40% of registers stuck the sweep must actually exercise the
  // shrinker, not vacuously pass.
  EXPECT_GT(diverged, 0u);
}

TEST(RandomPrograms, NoFaultSubjectNeverDiverges) {
  Rng rng(0x5322);
  for (int trial = 0; trial < 10; ++trial) {
    const CimProgram p = random_program(3, 4, 30, rng);
    const auto make_ideal = [] {
      return std::unique_ptr<Fabric>(std::make_unique<IdealFabric>());
    };
    std::vector<std::unique_ptr<FabricFaultInjector>> injectors;
    const auto make_hooked = [&] {
      // Empty plan attached: must be bit-identical to the bare fabric.
      injectors.push_back(
          std::make_unique<FabricFaultInjector>(FaultPlan(p.registers, 9)));
      auto fabric = std::make_unique<IdealFabric>();
      fabric->attach_faults(injectors.back().get());
      return std::unique_ptr<Fabric>(std::move(fabric));
    };
    for (std::uint64_t in = 0; in < 8; ++in) {
      const std::vector<bool> inputs{bool(in & 1), bool(in & 2), bool(in & 4)};
      EXPECT_EQ(minimal_failing_prefix(p, inputs, make_ideal, make_hooked),
                std::nullopt)
          << "trial " << trial << " input " << in;
    }
  }
}

TEST(RandomPrograms, SimdAgreesWithScalarReplay) {
  Rng rng(42);
  const CimProgram p = random_program(3, 3, 20, rng);
  std::vector<std::vector<bool>> windows;
  for (std::uint64_t in = 0; in < 8; ++in)
    windows.push_back({bool(in & 1), bool(in & 2), bool(in & 4)});
  IdealFabric simd_fabric;
  const SimdRunResult simd = run_program_simd(p, simd_fabric, windows);
  for (std::uint64_t in = 0; in < 8; ++in) {
    IdealFabric scalar;
    EXPECT_EQ(simd.outputs[in], run_program(p, scalar, windows[in])) << in;
  }
}

}  // namespace
}  // namespace memcim

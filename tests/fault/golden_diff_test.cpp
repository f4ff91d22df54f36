// The golden-model differential harness: prefix replay, divergence
// shrinking and whole-run classification.
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

namespace memcim {
namespace {

/// Subject factory whose fabrics share one stuck-at plan; the injectors
/// are kept alive here because fabrics do not own their hooks.
class StuckFactory {
 public:
  StuckFactory(std::size_t site, bool stuck_one)
      : site_(site), stuck_one_(stuck_one) {}

  [[nodiscard]] FabricFactory factory() {
    return [this] {
      auto fabric = std::make_unique<IdealFabric>();
      injectors_.push_back(std::make_unique<PinOne>(site_, stuck_one_));
      fabric->attach_faults(injectors_.back().get());
      return std::unique_ptr<Fabric>(std::move(fabric));
    };
  }

 private:
  /// Minimal hooks: exactly one register pinned, no transients.
  class PinOne final : public FabricFaultHooks {
   public:
    PinOne(Reg site, bool value) : site_(site), value_(value) {}
    [[nodiscard]] std::optional<bool> stuck_value(Reg r) const override {
      return r == site_ ? std::optional<bool>(value_) : std::nullopt;
    }
    [[nodiscard]] bool write_fails(Reg) override { return false; }
    [[nodiscard]] bool disturb_read(Reg, bool sensed) override {
      return sensed;
    }

   private:
    Reg site_;
    bool value_;
  };

  std::size_t site_;
  bool stuck_one_;
  std::vector<std::unique_ptr<PinOne>> injectors_;
};

FabricFactory ideal_factory() {
  return [] { return std::unique_ptr<Fabric>(std::make_unique<IdealFabric>()); };
}

CimProgram three_reg_program() {
  CimProgram p;
  p.inputs = 1;
  p.registers = 3;
  p.instructions = {{CimOp::kSetTrue, 1, 0},
                    {CimOp::kImply, 1, 2}};
  p.output = 2;
  return p;
}

TEST(GoldenDiff, IdenticalFabricsNeverDiverge) {
  const CimProgram p = three_reg_program();
  EXPECT_EQ(minimal_failing_prefix(p, {false}, ideal_factory(),
                                   ideal_factory()),
            std::nullopt);
}

TEST(GoldenDiff, ShrinkerFindsTheFirstInstructionThatMatters) {
  const CimProgram p = three_reg_program();
  // Register 1 stuck at 0: the input load (prefix 0) agrees with the
  // golden run (power-on 0), instruction 0 (SetTrue r1) is the first
  // to touch the broken device.
  StuckFactory subject(1, false);
  const auto prefix =
      minimal_failing_prefix(p, {false}, ideal_factory(), subject.factory());
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, 1u);
}

TEST(GoldenDiff, ShrinkerSeesDivergenceLaterRemasked) {
  // SetTrue r1 then SetFalse r1: the final states agree (both 0), but
  // the intermediate state after instruction 0 does not — the linear
  // scan must still report prefix 1.
  CimProgram p;
  p.inputs = 1;
  p.registers = 2;
  p.instructions = {{CimOp::kSetTrue, 1, 0}, {CimOp::kSetFalse, 1, 0}};
  p.output = 1;
  StuckFactory subject(1, false);
  const auto prefix =
      minimal_failing_prefix(p, {false}, ideal_factory(), subject.factory());
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, 1u);

  // …while the whole-run classification calls it clean: the fault is
  // masked at the output.
  IdealFabric golden;
  FabricFaultInjector injector(FaultPlan(2, 0));
  IdealFabric subject_fabric;  // empty plan: equivalent run
  subject_fabric.attach_faults(&injector);
  EXPECT_EQ(diff_program_run(p, {false}, golden, subject_fabric),
            DiffOutcome::kClean);
}

TEST(GoldenDiff, InputLoadDivergenceIsPrefixZero) {
  const CimProgram p = three_reg_program();
  // Register 0 (the input register) stuck at 1 with input 0: the load
  // itself already diverges → minimal prefix 0.
  StuckFactory subject(0, true);
  const auto prefix =
      minimal_failing_prefix(p, {false}, ideal_factory(), subject.factory());
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, 0u);
}

TEST(GoldenDiff, PrefixReplayOfFullProgramMatchesRunProgram) {
  Rng rng(31);
  CimProgram p;
  p.inputs = 2;
  p.registers = 5;
  for (int i = 0; i < 20; ++i) {
    CimInstruction inst;
    const double roll = rng.uniform();
    const auto pick = [&] {
      return static_cast<Reg>(rng.uniform_int(0, 4));
    };
    if (roll < 0.25) {
      inst.op = CimOp::kSetTrue;
      inst.a = pick();
    } else if (roll < 0.5) {
      inst.op = CimOp::kSetFalse;
      inst.a = pick();
    } else {
      inst.op = CimOp::kImply;
      inst.a = pick();
      do { inst.b = pick(); } while (inst.b == inst.a);
    }
    p.instructions.push_back(inst);
  }
  p.output = 3;
  for (std::uint64_t in = 0; in < 4; ++in) {
    const std::vector<bool> inputs{bool(in & 1), bool(in & 2)};
    IdealFabric replay;
    const std::vector<bool> state =
        run_program_prefix(p, replay, inputs, p.length());
    IdealFabric direct;
    EXPECT_EQ(state[p.output], run_program(p, direct, inputs)) << in;
  }
}

TEST(GoldenDiff, CrsBackendIsCleanAgainstIdealGolden) {
  const CimProgram p = three_reg_program();
  for (const bool in : {false, true}) {
    IdealFabric golden;
    CrsFabric subject(presets::crs_cell());
    EXPECT_EQ(diff_program_run(p, {in}, golden, subject),
              DiffOutcome::kClean);
  }
}

TEST(GoldenDiff, TallyBooksEveryOutcomeOnce) {
  DiffTally tally;
  tally.add(DiffOutcome::kClean);
  tally.add(DiffOutcome::kCorrected);
  tally.add(DiffOutcome::kDetected);
  tally.add(DiffOutcome::kSilent);
  tally.add(DiffOutcome::kSilent);
  EXPECT_EQ(tally.trials, 5u);
  EXPECT_EQ(tally.clean, 1u);
  EXPECT_EQ(tally.corrected, 1u);
  EXPECT_EQ(tally.detected, 1u);
  EXPECT_EQ(tally.silent, 2u);
  EXPECT_DOUBLE_EQ(tally.silent_fraction(), 0.4);
}

}  // namespace
}  // namespace memcim

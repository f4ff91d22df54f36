// Optimization passes: every pass (and the full pipeline) is
// semantics-preserving — bitwise-identical outputs vs the unoptimized
// replay on the ideal, device-level and CRS fabrics — and the pipeline
// actually earns its keep on the recorded workload kernels (>= 5% of
// the word-equality pulses removed, window compacted).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "isa/passes.h"
#include "isa_test_util.h"
#include "logic/adder.h"
#include "logic/comparator.h"
#include "logic/crs_fabric.h"
#include "logic/device_fabric.h"
#include "logic/gates.h"
#include "logic/ideal_fabric.h"
#include "support/program_golden.h"

namespace memcim::isa {
namespace {

using testutil::random_program;

using PassFn = std::function<CimProgram(const CimProgram&, PassStats*)>;

const std::vector<std::pair<std::string, PassFn>>& all_passes() {
  static const std::vector<std::pair<std::string, PassFn>> passes = {
      {"known_state",
       [](const CimProgram& p, PassStats* s) { return known_state_pass(p, s); }},
      {"dead_pulse",
       [](const CimProgram& p, PassStats* s) {
         return dead_pulse_elimination(p, s);
       }},
      {"compact",
       [](const CimProgram& p, PassStats* s) { return compact_registers(p, s); }},
      {"pipeline",
       [](const CimProgram& p, PassStats* s) { return optimize_program(p, s); }},
  };
  return passes;
}

std::vector<bool> random_inputs(std::size_t n, Rng& rng) {
  std::vector<bool> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = rng.uniform() < 0.5;
  return in;
}

/// Replay `a` and `b` on fresh instances of the given fabric type and
/// require identical result bits.
template <typename FabricT, typename... Args>
void expect_same_outputs(const CimProgram& a, const CimProgram& b,
                         const std::vector<bool>& inputs,
                         const std::string& label, Args&&... args) {
  FabricT fa(args...);
  FabricT fb(args...);
  EXPECT_EQ(run_program_wide(a, fa, inputs), run_program_wide(b, fb, inputs))
      << label;
}

/// Every pass is differential-tested against the untouched program on
/// the ideal and CRS backends (raw random IMP streams are outside the
/// device fabric's analog creep budget, exactly as in
/// tests/logic/random_program_test.cpp — recorded gate-library programs
/// cover the device backend below).
TEST(IsaPasses, RandomProgramsStayEquivalentOnIdealAndCrs) {
  Rng rng(0x9A55ull);
  for (int trial = 0; trial < 25; ++trial) {
    const CimProgram p = random_program(3, 5, 30, rng, /*multi_output=*/true);
    for (const auto& [name, pass] : all_passes()) {
      const CimProgram q = pass(p, nullptr);
      for (std::uint64_t in = 0; in < 8; ++in) {
        const std::vector<bool> inputs{bool(in & 1), bool(in & 2),
                                       bool(in & 4)};
        const std::string label =
            name + " trial " + std::to_string(trial) + " inputs " +
            std::to_string(in);
        expect_same_outputs<IdealFabric>(p, q, inputs, label);
        expect_same_outputs<CrsFabric>(p, q, inputs, label,
                                       presets::crs_cell());
      }
    }
  }
}

CimProgram record_word_equality(std::size_t bits) {
  return record_program(2 * bits, [&](Fabric& f, const std::vector<Reg>& in) {
    const std::span<const Reg> a(in.data(), bits);
    const std::span<const Reg> b(in.data() + bits, bits);
    return word_equality(f, a, b);
  });
}

CimProgram record_ripple_adder(std::size_t bits) {
  return record_program_multi(
      2 * bits, [&](Fabric& f, const std::vector<Reg>& in) {
        const std::span<const Reg> a(in.data(), bits);
        const std::span<const Reg> b(in.data() + bits, bits);
        RippleAdderResult r = ripple_adder(f, a, b);
        std::vector<Reg> outs = std::move(r.sum);
        outs.push_back(r.carry_out);
        return outs;
      });
}

std::vector<std::pair<std::string, CimProgram>> recorded_kernels() {
  std::vector<std::pair<std::string, CimProgram>> kernels;
  kernels.emplace_back("and", record_program(2, [](Fabric& f,
                                                   const std::vector<Reg>& in) {
                         return gate_and(f, in[0], in[1]);
                       }));
  kernels.emplace_back("xnor", record_program(2, [](Fabric& f,
                                                    const std::vector<Reg>& in) {
                         return gate_xnor(f, in[0], in[1]);
                       }));
  kernels.emplace_back("word_equality8", record_word_equality(8));
  kernels.emplace_back("ripple_adder6", record_ripple_adder(6));
  return kernels;
}

/// Recorded gate-library kernels run on all THREE backends, optimized
/// vs source, over random operand vectors.
TEST(IsaPasses, RecordedKernelsStayEquivalentOnAllFabrics) {
  Rng rng(0xFAB5ull);
  for (const auto& [kernel_name, p] : recorded_kernels()) {
    for (const auto& [pass_name, pass] : all_passes()) {
      const CimProgram q = pass(p, nullptr);
      for (int vec = 0; vec < 16; ++vec) {
        const std::vector<bool> inputs = random_inputs(p.inputs, rng);
        const std::string label = kernel_name + "/" + pass_name + " vector " +
                                  std::to_string(vec);
        expect_same_outputs<IdealFabric>(p, q, inputs, label);
        expect_same_outputs<CrsFabric>(p, q, inputs, label,
                                       presets::crs_cell());
        DeviceFabricParams dp;
        dp.device = presets::vcm_taox_logic();
        expect_same_outputs<DeviceFabric>(p, q, inputs, label, dp);
      }
    }
  }
}

TEST(IsaPasses, KnownStateDropsRedundantSetsOnFreshRegisters) {
  // Every gate starts by clearing its freshly allocated work registers;
  // on a fresh window those clears are no-ops the pass must fold away.
  CimProgram p;
  p.inputs = 1;
  p.registers = 3;
  p.output = 1;
  p.instructions = {{CimOp::kSetFalse, 1, 0},   // fresh r1 already 0
                    {CimOp::kImply, 0, 1},
                    {CimOp::kSetTrue, 2, 0},
                    {CimOp::kSetTrue, 2, 0}};   // second set is a no-op
  PassStats stats;
  const CimProgram q = known_state_pass(p, &stats);
  EXPECT_EQ(q.instructions.size(), 2u);
  EXPECT_EQ(stats.known_state_removed, 2u);
}

TEST(IsaPasses, KnownStateStrengthReducesImplyFromKnownZero) {
  // r1 is scratch and still fresh-zero, so IMP r1 r2 always sets r2.
  CimProgram p;
  p.inputs = 1;
  p.registers = 3;
  p.output = 2;
  p.instructions = {{CimOp::kImply, 1, 2}};
  PassStats stats;
  const CimProgram q = known_state_pass(p, &stats);
  ASSERT_EQ(q.instructions.size(), 1u);
  EXPECT_EQ(q.instructions[0].op, CimOp::kSetTrue);
  EXPECT_EQ(q.instructions[0].a, 2u);
  EXPECT_EQ(stats.strength_reduced, 1u);
}

TEST(IsaPasses, KnownStateFusesReestablishedImplications) {
  // The second IMP re-establishes an implication that nothing
  // invalidated (imply is monotone), so it cannot change any state.
  CimProgram p;
  p.inputs = 3;
  p.registers = 4;
  p.output = 2;
  p.instructions = {{CimOp::kImply, 0, 2},
                    {CimOp::kImply, 1, 2},
                    {CimOp::kImply, 0, 2}};
  PassStats stats;
  const CimProgram q = known_state_pass(p, &stats);
  EXPECT_EQ(q.instructions.size(), 2u);
  EXPECT_EQ(stats.implications_fused, 1u);
}

TEST(IsaPasses, DeadPulseEliminationDropsUnobservedWrites) {
  CimProgram p;
  p.inputs = 1;
  p.registers = 4;
  p.output = 2;
  p.instructions = {{CimOp::kSetTrue, 3, 0},  // r3 never observed
                    {CimOp::kImply, 0, 2},
                    {CimOp::kImply, 1, 3}};   // still dead: r3 unread after
  PassStats stats;
  const CimProgram q = dead_pulse_elimination(p, &stats);
  ASSERT_EQ(q.instructions.size(), 1u);
  EXPECT_EQ(q.instructions[0].op, CimOp::kImply);
  EXPECT_EQ(stats.dead_removed, 2u);
}

TEST(IsaPasses, CompactionShrinksTheWordEqualityWindow) {
  const CimProgram p = record_word_equality(8);
  PassStats stats;
  const CimProgram q = compact_registers(p, &stats);
  EXPECT_LT(q.registers, p.registers);
  EXPECT_EQ(stats.registers_before, p.registers);
  EXPECT_EQ(stats.registers_after, q.registers);
  EXPECT_GT(stats.registers_saved(), 0u);
}

TEST(IsaPasses, PipelineCutsAtLeastFivePercentOfWordEqualityPulses) {
  const CimProgram p = record_word_equality(64);
  PassStats stats;
  const CimProgram q = optimize_program(p, &stats);
  EXPECT_EQ(stats.pulses_before, p.length());
  EXPECT_EQ(stats.pulses_after, q.length());
  // The acceptance bar: >= 5% of the recorded pulses removed.
  EXPECT_GE(stats.pulses_removed() * 20, stats.pulses_before);
  EXPECT_LE(q.registers, p.registers);
  EXPECT_GE(stats.rounds, 1u);
}

TEST(IsaPasses, RowBudgetForcesRecycledRowsToClear) {
  // r2 and r3 rely on fresh-row zero.  With 3 rows, r3 must recycle
  // r1's expired row and gets the explicit SET0 restoring the zero.
  CimProgram p;
  p.inputs = 1;
  p.registers = 4;
  p.output = 3;
  p.instructions = {{CimOp::kSetTrue, 1, 0},
                    {CimOp::kImply, 1, 2},
                    {CimOp::kImply, 0, 2},
                    {CimOp::kImply, 2, 3}};
  PassStats stats;
  const CimProgram q = compact_registers(p, &stats, /*max_rows=*/3);
  EXPECT_EQ(q.registers, 3u);
  EXPECT_EQ(stats.clears_inserted, 1u);
  EXPECT_EQ(q.instructions.size(), p.instructions.size() + 1);
  for (const bool in : {false, true}) {
    expect_same_outputs<IdealFabric>(p, q, {in}, "budgeted compaction");
    expect_same_outputs<CrsFabric>(p, q, {in}, "budgeted compaction",
                                   presets::crs_cell());
  }
  // Unbudgeted, both zero-reliant registers keep fresh rows: no clears.
  PassStats free_stats;
  const CimProgram full = compact_registers(p, &free_stats);
  EXPECT_EQ(free_stats.clears_inserted, 0u);
  EXPECT_EQ(full.instructions.size(), p.instructions.size());

  // A budget below the peak number of live registers cannot be met.
  EXPECT_THROW((void)compact_registers(p, nullptr, 2), Error);
  // Nor can one below the input ABI rows.
  EXPECT_THROW((void)compact_registers(p, nullptr, 0), Error);
}

TEST(IsaPasses, PipelineReducesTheRippleAdderToo) {
  const CimProgram p = record_ripple_adder(16);
  PassStats stats;
  const CimProgram q = optimize_program(p, &stats);
  EXPECT_LE(q.length(), p.length());
  EXPECT_GE(stats.pulses_removed() * 20, stats.pulses_before);
}

}  // namespace
}  // namespace memcim::isa

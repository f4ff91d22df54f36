// Differential suite for the packed (bit-sliced) microcode executor:
// run_program_packed must be bitwise-equivalent to run_program_simd on
// the scalar cost-model backends — per-window outputs, latency, energy,
// writes, the total of register-value changes, and every fabric.* /
// program.* telemetry tally.
#include "logic/packed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/comparator.h"
#include "logic/device_fabric.h"
#include "logic/gates.h"
#include "logic/ideal_fabric.h"
#include "logic/program.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

using telemetry::Registry;

struct TelemetryGuard {
  ~TelemetryGuard() { telemetry::set_enabled(true); }
};

CimProgram random_program(std::size_t inputs, std::size_t scratch,
                          std::size_t length, Rng& rng) {
  CimProgram p;
  p.inputs = inputs;
  p.registers = inputs + scratch;
  for (std::size_t i = 0; i < length; ++i) {
    CimInstruction inst;
    const auto pick_reg = [&] {
      return static_cast<Reg>(
          rng.uniform_int(0, static_cast<std::int64_t>(p.registers - 1)));
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

/// Reference boolean replay of one window, counting register-value
/// changes (input loads included) — the packed engine's transition
/// book must reproduce these exactly.
struct ReferenceRun {
  bool output = false;
  std::uint64_t transitions = 0;
};

ReferenceRun reference_replay(const CimProgram& p,
                              const std::vector<bool>& inputs) {
  std::vector<bool> regs(p.registers, false);
  ReferenceRun run;
  const auto assign = [&](Reg r, bool v) {
    if (regs[r] != v) {
      regs[r] = v;
      ++run.transitions;
    }
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) assign(i, inputs[i]);
  for (const CimInstruction& inst : p.instructions) {
    switch (inst.op) {
      case CimOp::kSetFalse:
        assign(inst.a, false);
        break;
      case CimOp::kSetTrue:
        assign(inst.a, true);
        break;
      case CimOp::kImply:
        assign(inst.b, !regs[inst.a] || regs[inst.b]);
        break;
    }
  }
  run.output = regs[p.output];
  return run;
}

std::vector<std::vector<bool>> exhaustive_windows(std::size_t inputs) {
  std::vector<std::vector<bool>> windows;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << inputs); ++v) {
    std::vector<bool> w(inputs);
    for (std::size_t i = 0; i < inputs; ++i) w[i] = ((v >> i) & 1u) != 0;
    windows.push_back(std::move(w));
  }
  return windows;
}

std::vector<std::vector<bool>> random_windows(std::size_t inputs,
                                              std::size_t count, Rng& rng) {
  std::vector<std::vector<bool>> windows(count);
  for (auto& w : windows) {
    w.resize(inputs);
    for (std::size_t i = 0; i < inputs; ++i) w[i] = rng.bernoulli(0.5);
  }
  return windows;
}

CimProgram xor_program() {
  return record_program(2, [](Fabric& f, const std::vector<Reg>& in) {
    return gate_xor(f, in[0], in[1]);
  });
}

CimProgram adder_program(std::size_t bits) {
  return record_program(
      2 * bits, [&](Fabric& f, const std::vector<Reg>& in) {
        const std::span<const Reg> a(in.data(), bits);
        const std::span<const Reg> b(in.data() + bits, bits);
        return ripple_adder(f, a, b).carry_out;
      });
}

CimProgram comparator_program() {
  return record_program(4, [](Fabric& f, const std::vector<Reg>& in) {
    return equality_comparator(f, in[0], in[1], in[2], in[3]);
  });
}

/// The deterministic fabric/program tallies a run books (the slice the
/// packed engine must reproduce; logic.packed.* are additive extras).
std::map<std::string, std::uint64_t> logic_tallies() {
  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const telemetry::CounterSample& c : snap.counters) {
    if (c.name.rfind("fabric.", 0) == 0 || c.name.rfind("program.", 0) == 0)
      out[c.name] = c.value;
  }
  return out;
}

TEST(PackedCompile, RejectsMalformedPrograms) {
  CimProgram p;
  EXPECT_THROW((void)compile_program(p), Error);  // no registers

  p.registers = 2;
  p.inputs = 1;
  p.output = 2;  // out of range
  EXPECT_THROW((void)compile_program(p), Error);

  p.output = 0;
  p.instructions.push_back({CimOp::kSetTrue, 5, 0});  // reg out of range
  EXPECT_THROW((void)compile_program(p), Error);

  p.instructions.back() = {CimOp::kImply, 0, 7};  // target out of range
  EXPECT_THROW((void)compile_program(p), Error);

  p.instructions.back() = {CimOp::kImply, 0, 1};
  const PackedProgram compiled = compile_program(p);
  EXPECT_EQ(compiled.implies_per_window, 1u);
  EXPECT_EQ(compiled.sets_per_window, 0u);
}

TEST(PackedVsIdeal, RecordedProgramsAgreeBitwise) {
  const struct {
    const char* name;
    CimProgram program;
  } cases[] = {
      {"xor", xor_program()},
      {"adder4", adder_program(4)},
      {"comparator", comparator_program()},
  };
  for (const auto& c : cases) {
    const auto windows = exhaustive_windows(c.program.inputs);
    IdealFabric fabric;
    const SimdRunResult simd = run_program_simd(c.program, fabric, windows);
    const PackedRunResult packed = run_program_packed(compile_program(c.program), windows);
    ASSERT_EQ(packed.outputs.size(), windows.size()) << c.name;
    for (std::size_t w = 0; w < windows.size(); ++w)
      EXPECT_EQ(packed.outputs[w], simd.outputs[w]) << c.name << " w" << w;
    EXPECT_EQ(packed.writes, simd.writes) << c.name;
    EXPECT_EQ(packed.latency.value(), simd.latency.value()) << c.name;
    EXPECT_EQ(packed.energy.value(), simd.energy.value()) << c.name;
  }
}

TEST(PackedVsIdeal, TelemetryTalliesMatchScalar) {
  TelemetryGuard guard;
  telemetry::set_enabled(true);
  const CimProgram p = adder_program(3);
  const auto windows = exhaustive_windows(p.inputs);  // 64: one full block

  Registry::global().reset();
  IdealFabric fabric;
  (void)run_program_simd(p, fabric, windows);
  const auto scalar = logic_tallies();

  Registry::global().reset();
  (void)run_program_packed(compile_program(p), windows);
  const auto packed = logic_tallies();

  EXPECT_GT(scalar.at("fabric.steps"), 0u);
  EXPECT_GT(scalar.at("program.imply_steps"), 0u);
  EXPECT_EQ(scalar, packed);
}

TEST(PackedVsReference, RandomProgramsOutputsAndTransitions) {
  Rng rng(0xBEEF5);
  for (int trial = 0; trial < 10; ++trial) {
    const CimProgram p = random_program(4, 4, 40, rng);
    // 130 windows: two full lane blocks plus a partial one.
    const auto windows = random_windows(p.inputs, 130, rng);
    const PackedRunResult packed = run_program_packed(compile_program(p), windows);
    std::uint64_t transitions = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const ReferenceRun ref = reference_replay(p, windows[w]);
      EXPECT_EQ(packed.outputs[w], ref.output) << "trial " << trial << " w" << w;
      transitions += ref.transitions;
    }
    EXPECT_EQ(packed.transitions, transitions) << "trial " << trial;
  }
}

/// The flip total is kept in 4-bit per-lane counters folded every 15
/// words.  Programs of lengths on both sides of a fold over 16
/// registers, every lane-block shape, and a register toggled on every
/// instruction of every lane must all reproduce the reference's total,
/// and the logic.packed.transitions counter must book it.
TEST(PackedVsReference, FlipTotalIsExactAcrossFoldBoundaries) {
  TelemetryGuard guard;
  telemetry::set_enabled(true);
  telemetry::Counter& booked =
      Registry::global().counter("logic.packed.transitions");
  const auto check = [&](const CimProgram& p,
                         const std::vector<std::vector<bool>>& windows,
                         const std::string& what) {
    std::uint64_t expected = 0;
    for (const std::vector<bool>& w : windows)
      expected += reference_replay(p, w).transitions;
    const std::uint64_t before = booked.value();
    const PackedRunResult packed = run_program_packed(compile_program(p), windows);
    EXPECT_EQ(packed.transitions, expected) << what;
    EXPECT_EQ(booked.value() - before, packed.transitions) << what;
  };

  Rng rng(0xF01D);
  for (const std::size_t length : {14u, 15u, 16u, 30u, 31u, 200u}) {
    for (const std::size_t lanes : {1u, 63u, 64u, 65u, 130u}) {
      const CimProgram p = random_program(3, 13, length, rng);
      check(p, random_windows(p.inputs, lanes, rng),
            "length " + std::to_string(length) + ", " +
                std::to_string(lanes) + " lanes");
    }
  }

  // One register flipped by all 32 instructions in all 64 lanes: 16
  // flips in a row would wrap a 4-bit lane counter to zero.
  CimProgram toggle;
  toggle.registers = 1;
  for (int i = 0; i < 32; ++i)
    toggle.instructions.push_back(
        {i % 2 == 0 ? CimOp::kSetTrue : CimOp::kSetFalse, 0, 0});
  const std::vector<std::vector<bool>> lanes64(64);
  check(toggle, lanes64, "toggle");
  EXPECT_EQ(run_program_packed(compile_program(toggle), lanes64).transitions, 32u * 64u);
}

TEST(PackedVsReference, BlockBoundaryWindowCounts) {
  Rng rng(0x10AD);
  const CimProgram p = random_program(3, 3, 25, rng);
  for (const std::size_t count : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{200}}) {
    const auto windows = random_windows(p.inputs, count, rng);
    IdealFabric fabric;
    const SimdRunResult simd = run_program_simd(p, fabric, windows);
    const PackedRunResult packed = run_program_packed(compile_program(p), windows);
    for (std::size_t w = 0; w < count; ++w)
      EXPECT_EQ(packed.outputs[w], simd.outputs[w]) << count << ":" << w;
    EXPECT_EQ(packed.writes, simd.writes) << count;
    EXPECT_EQ(packed.latency.value(), simd.latency.value()) << count;
  }
}

TEST(PackedVsDevice, GateProgramAgrees) {
  const CimProgram p = xor_program();
  const auto windows = exhaustive_windows(p.inputs);
  DeviceFabricParams dp;
  dp.device = presets::vcm_taox_logic();
  DeviceFabric fabric(dp);
  const SimdRunResult simd = run_program_simd(p, fabric, windows);
  const PackedRunResult packed = run_program_packed(compile_program(p), windows);
  for (std::size_t w = 0; w < windows.size(); ++w)
    EXPECT_EQ(packed.outputs[w], simd.outputs[w]) << w;
  EXPECT_EQ(packed.writes, simd.writes);
  EXPECT_EQ(packed.latency.value(), simd.latency.value());
}

TEST(PackedKillSwitch, DisabledTelemetryBooksNothing) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  Registry::global().reset();
  const CimProgram p = xor_program();
  const PackedRunResult packed =
      run_program_packed(compile_program(p), exhaustive_windows(p.inputs));
  EXPECT_EQ(packed.outputs.size(), 4u);
  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  for (const telemetry::CounterSample& c : snap.counters)
    EXPECT_EQ(c.value, 0u) << c.name;
}

}  // namespace
}  // namespace memcim

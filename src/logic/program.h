// CIM microcode: record → replay stateful-logic programs.
//
// The paper's architecture drives the crossbar from a CMOS controller
// ("the communication and control from/to the crossbar can be realized
// using CMOS technology", Section III.A).  That controller does not
// re-derive gate sequences per operation — it replays *microcode*.
// This module provides exactly that:
//
//   * `RecordingFabric` captures the set/imply stream a gate-library
//     computation emits, producing a `CimProgram`,
//   * `replay_program_window` replays a program on any backend fabric,
//   * `run_program_simd` replays it across W independent register
//     windows ("rows"): one program's latency, W× the writes — the
//     massive-parallelism execution model of the CIM array.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "logic/fabric.h"

namespace memcim {

enum class CimOp : std::uint8_t {
  kSetFalse,  ///< reg[a] ← 0
  kSetTrue,   ///< reg[a] ← 1
  kImply,     ///< reg[b] ← reg[a] IMP reg[b]
};

struct CimInstruction {
  CimOp op = CimOp::kSetFalse;
  Reg a = 0;
  Reg b = 0;
};

/// A recorded stateful-logic program over a window of `registers`
/// registers; `inputs` leading registers are the operands, `output` is
/// where the result lands.  Multi-bit results (adders, word kernels)
/// list every result register in `outputs`; when `outputs` is empty the
/// program has the single legacy result `output`.
struct CimProgram {
  std::vector<CimInstruction> instructions;
  std::size_t registers = 0;
  std::size_t inputs = 0;
  Reg output = 0;
  std::vector<Reg> outputs;  ///< empty ⇒ single result at `output`

  [[nodiscard]] std::size_t length() const { return instructions.size(); }
};

/// The program's result registers: `outputs` when declared, else the
/// single legacy `output`.  Never empty.
[[nodiscard]] std::vector<Reg> result_registers(const CimProgram& program);

/// A Fabric that executes nothing physical — it records the microcode.
class RecordingFabric final : public Fabric {
 public:
  RecordingFabric() = default;

  /// Reserve storage up front for a recording of known shape.  Repeated
  /// `grow()` / `push_back` on large recordings reallocates both the
  /// register image and the instruction stream; callers that know the
  /// program shape (re-recording a cached kernel, property tests with a
  /// fixed length) pass it here and record allocation-free.
  RecordingFabric(std::size_t expected_registers,
                  std::size_t expected_instructions) {
    bits_.reserve(expected_registers);
    recording_.reserve(expected_instructions);
  }

  /// The instruction stream captured so far.
  [[nodiscard]] const std::vector<CimInstruction>& recording() const {
    return recording_;
  }

 protected:
  void do_set(Reg r, bool value) override {
    recording_.push_back({value ? CimOp::kSetTrue : CimOp::kSetFalse, r, 0});
    bits_[r] = value;
  }
  void do_imply(Reg p, Reg q) override {
    recording_.push_back({CimOp::kImply, p, q});
    bits_[q] = !bits_[p] || bits_[q];
  }
  [[nodiscard]] bool do_read(Reg r) const override { return bits_[r]; }
  void grow(std::size_t n) override {
    if (bits_.size() < n) {
      // Geometric reservation: vector<bool>::resize alone reallocates
      // per register on the alloc-one-at-a-time recording pattern.
      if (bits_.capacity() < n) bits_.reserve(std::max(n, bits_.size() * 2));
      bits_.resize(n, false);
    }
  }

 private:
  std::vector<CimInstruction> recording_;
  std::vector<bool> bits_;
};

/// Record a computation into a program.  `body` receives the fabric and
/// the pre-allocated input registers and returns the output register.
/// The optional shape hints pre-reserve the recorder's storage (see
/// RecordingFabric's reserving constructor).
template <typename Body>
[[nodiscard]] CimProgram record_program(std::size_t inputs, Body&& body,
                                        std::size_t expected_registers = 0,
                                        std::size_t expected_instructions = 0) {
  RecordingFabric recorder(expected_registers, expected_instructions);
  std::vector<Reg> in_regs;
  in_regs.reserve(inputs);
  for (std::size_t i = 0; i < inputs; ++i) in_regs.push_back(recorder.alloc());
  const Reg out = body(recorder, in_regs);
  CimProgram program;
  program.instructions = recorder.recording();
  program.registers = recorder.size();
  program.inputs = inputs;
  program.output = out;
  return program;
}

/// Record a computation with a multi-bit result.  `body` returns the
/// result registers in order (e.g. sum LSB..MSB then carry).
template <typename Body>
[[nodiscard]] CimProgram record_program_multi(
    std::size_t inputs, Body&& body, std::size_t expected_registers = 0,
    std::size_t expected_instructions = 0) {
  RecordingFabric recorder(expected_registers, expected_instructions);
  std::vector<Reg> in_regs;
  in_regs.reserve(inputs);
  for (std::size_t i = 0; i < inputs; ++i) in_regs.push_back(recorder.alloc());
  std::vector<Reg> outs = body(recorder, in_regs);
  CimProgram program;
  program.instructions = recorder.recording();
  program.registers = recorder.size();
  program.inputs = inputs;
  program.output = outs.empty() ? Reg{0} : outs.front();
  program.outputs = std::move(outs);
  return program;
}

/// Allocate a fresh contiguous `registers`-wide window on `fabric` and
/// return its base register.
[[nodiscard]] Reg allocate_program_window(Fabric& fabric,
                                          std::size_t registers);

/// The shared IR replay core: load `inputs` into the window at `base`,
/// then execute the first `length` instructions.  Books NO program.*
/// telemetry (fabric.* accrues as usual through the Fabric calls) —
/// run_program_simd layers telemetry on top, and the test-side goldens
/// (tests/support/program_golden.h) replay prefixes through this same
/// switch so the two can never drift.  Returns the number of kImply
/// pulses executed.
std::uint64_t replay_program_window(const CimProgram& program, Fabric& fabric,
                                    Reg base, const std::vector<bool>& inputs,
                                    std::size_t length);

/// Full-length convenience overload.
std::uint64_t replay_program_window(const CimProgram& program, Fabric& fabric,
                                    Reg base, const std::vector<bool>& inputs);

struct SimdRunResult {
  std::vector<bool> outputs;  ///< one per window
  Time latency{0.0};          ///< one program pass (windows concurrent)
  Energy energy{0.0};         ///< summed over all windows
  std::uint64_t writes = 0;
};

/// Replay a program across `input_sets.size()` independent register
/// windows of the same fabric — rows of the crossbar executing the
/// same microcode in lock-step.
[[nodiscard]] SimdRunResult run_program_simd(
    const CimProgram& program, Fabric& fabric,
    const std::vector<std::vector<bool>>& input_sets);

}  // namespace memcim

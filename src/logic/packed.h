// Bit-sliced (SIMD-within-a-register) microcode execution engine.
//
// `run_program_simd` replays a CimProgram window-by-window through the
// virtual Fabric interface: one do_set/do_imply dispatch per
// instruction *per window*.  That serializes exactly the parallelism
// the paper's architecture provides for free — Section III.B budgets
// 10^6 concurrent operations, and the array executes one instruction
// across every row at once.
//
// This engine recovers that execution model in the simulator.  Each
// block of W <= 64 independent register windows runs on a plain array
// of register words, ONE u64 per register (struct-of-arrays: bit w of
// word r is window w's register r), so each instruction executes for
// all windows with a handful of bitwise ops:
//
//   kSetFalse  word[r]  = 0
//   kSetTrue   word[r]  = lane_mask
//   kImply     word[q] |= ~word[p]     (q <- p IMP q, masked to the lanes)
//
// Cost books are reconciled exactly, not approximately: the packed
// runner books the same fabric.* / program.* telemetry tallies, the
// same SimdRunResult latency/energy/writes, and the same total of
// register-value changes a boolean scalar replay of every window would
// count.  Differential tests in tests/logic/packed_program_test.cpp
// hold the two paths bit-identical.
//
// The engine models the ideal cost-model fabric only (boolean
// semantics, one step per instruction, mirroring IdealFabric).  The
// CrsFabric 2-step IMP, fault hooks and device-accurate runs stay on
// the scalar path — see docs/LOGIC.md for the fallback rules.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logic/fabric.h"
#include "logic/program.h"

namespace memcim {

/// Windows per machine word: one bit lane each.
inline constexpr std::size_t kPackedLanes = 64;

/// Whole 64-lane blocks needed to pack `windows` independent register
/// windows (zero for zero windows).  The packed engines size their
/// block loops with this; the serving coalescer caps batches at
/// kPackedLanes so every dispatched batch is exactly one lane block.
[[nodiscard]] constexpr std::size_t packed_lane_blocks(std::size_t windows) {
  return (windows + kPackedLanes - 1) / kPackedLanes;
}

/// A validated, cost-annotated program ready for packed replay.
/// Compiling once hoists the per-instruction bounds checks and the
/// per-window step/write totals out of the execution loop.
struct PackedProgram {
  std::vector<CimInstruction> instructions;
  std::size_t registers = 0;
  std::size_t inputs = 0;
  std::vector<Reg> outputs;              ///< resolved result registers (≥1)
  std::uint64_t sets_per_window = 0;     ///< kSet* instructions (excl. input loads)
  std::uint64_t implies_per_window = 0;  ///< kImply instructions

  [[nodiscard]] std::size_t length() const { return instructions.size(); }
};

/// Validate `program` (register bounds, arity) and annotate it with the
/// per-window cost totals.  Throws Error on a malformed program.
[[nodiscard]] PackedProgram compile_program(const CimProgram& program);

/// Execution options: the cost quanta of the IdealFabric being mirrored
/// (one step per instruction).
struct PackedRunOptions {
  LogicCostModel cost{};
  /// Lane blocks per thread-pool task.  Short programs amortize task
  /// dispatch over several blocks; long programs keep grain 1 for load
  /// balance.  The compiler's window-packing pass picks this — see
  /// packing_block_grain() in isa/passes.h.  0 is treated as 1.
  std::size_t block_grain = 1;
};

/// Result of a packed SIMD replay: everything SimdRunResult reports,
/// plus every window's result registers as lane words, the total
/// register-value changes and the per-window step count (handy for
/// latency cross-checks).
struct PackedRunResult {
  std::vector<bool> outputs;  ///< one per window (first result)
  /// Result lane words: `result_words[b * results + o]` holds result
  /// register o of windows 64b .. 64b+63, bit w for window 64b + w.
  std::vector<std::uint64_t> result_words;
  std::size_t results = 1;        ///< result registers per window
  std::uint64_t transitions = 0;  ///< register flips summed over windows
  Time latency{0.0};              ///< one program pass
  Energy energy{0.0};             ///< summed over all windows
  std::uint64_t writes = 0;
  std::uint64_t steps_per_window = 0;

  /// Window w's result bits, in result-register order.
  [[nodiscard]] std::vector<bool> wide(std::size_t w) const;
};

/// Packed replay of `compiled` across `windows` windows given as input
/// lane words, chunked into 64-lane blocks over the thread pool:
/// `lane_words[b * compiled.inputs + i]` holds input i of windows
/// 64b .. 64b+63, bit w for window 64b + w (bits past the last window
/// are ignored).  This is the engine's one entry point; callers that
/// hold their inputs bit-sliced already (CimTile's stored rows) hand
/// them over without a per-window copy.  `compiled` must come from
/// compile_program, which validated every register index the replay
/// loop then uses unchecked.  Bitwise equivalent to
/// run_program_simd on an IdealFabric with the same cost model:
/// identical outputs, latency, energy, writes, and fabric.* /
/// program.* telemetry tallies.
[[nodiscard]] PackedRunResult run_program_packed(
    const PackedProgram& compiled, std::size_t windows,
    std::span<const std::uint64_t> lane_words,
    const PackedRunOptions& options = {});

/// Packed replay of `input_sets.size()` windows, one input vector per
/// window: transposes them into lane words for the form above.
[[nodiscard]] PackedRunResult run_program_packed(
    const PackedProgram& compiled,
    const std::vector<std::vector<bool>>& input_sets,
    const PackedRunOptions& options = {});

}  // namespace memcim

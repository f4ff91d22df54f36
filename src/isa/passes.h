// Semantics-preserving optimization passes over CimProgram microcode.
//
// Every pass preserves the replay contract: a fresh window (registers
// start at logic 0), inputs loaded into registers [0, inputs), result
// registers read at the end.  Under that contract the passes prove
// their rewrites from three IMP facts:
//
//   * the window starts all-zero, so scratch state is known until the
//     first data-dependent write,
//   * imply is monotone (q only ever grows toward 1), so an
//     already-established implication q >= !p stays established until
//     a SET lowers p or q — adjacent redundant IMP pulses fuse away,
//   * a pulse whose register is never read again (transitively) is
//     dead and can be eliminated.
//
// Pass pipeline (optimize_program): known-state folding and IMP fusion
// alternate with dead-pulse elimination to a fixpoint, then liveness
// register compaction renames the window so programs fit narrower
// crossbar windows.  Compaction never trades a pulse for a row unless
// forced: zero-reliant registers keep fresh rows (zero is free there),
// and only a row-budgeted window recycles them with an explicit SET0
// clear.  Differential tests in tests/isa/ hold every pass bitwise-
// equivalent to the unoptimized replay on all three fabrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "logic/packed.h"
#include "logic/program.h"

namespace memcim::isa {

/// What the pipeline did to a program (per-pass pulse tallies).
struct PassStats {
  std::size_t known_state_removed = 0;  ///< const-folded / no-op pulses
  std::size_t implications_fused = 0;   ///< redundant IMP pulses dropped
  std::size_t strength_reduced = 0;     ///< IMP rewritten to SET1
  std::size_t dead_removed = 0;         ///< never-observed pulses
  std::size_t clears_inserted = 0;      ///< SET0 added for recycled rows
  std::size_t rounds = 0;               ///< fold/DCE iterations to fixpoint
  std::size_t pulses_before = 0;
  std::size_t pulses_after = 0;
  std::size_t registers_before = 0;
  std::size_t registers_after = 0;

  [[nodiscard]] std::size_t pulses_removed() const {
    return pulses_before > pulses_after ? pulses_before - pulses_after : 0;
  }
  [[nodiscard]] std::size_t registers_saved() const {
    return registers_before > registers_after
               ? registers_before - registers_after
               : 0;
  }
};

/// Known-state folding + IMP fusion.  Tracks the 0/1/unknown lattice of
/// every register from the fresh-window state, drops pulses that cannot
/// change state (SET to the held value, IMP into a known-1 target, IMP
/// from a known-1 source), strength-reduces IMP from a known-0 source
/// to SET1, and fuses IMP pulses whose implication is already
/// established and not since invalidated.
[[nodiscard]] CimProgram known_state_pass(const CimProgram& program,
                                          PassStats* stats = nullptr);

/// Dead-pulse elimination: backward liveness from the result registers;
/// pulses writing registers that are never subsequently read (by an IMP
/// operand or the final result read) are dropped.
[[nodiscard]] CimProgram dead_pulse_elimination(const CimProgram& program,
                                                PassStats* stats = nullptr);

/// No row budget: the window may keep one fresh row per zero-reliant
/// register (see compact_registers).
inline constexpr std::size_t kNoRowBudget =
    std::numeric_limits<std::size_t>::max();

/// Liveness-based register compaction (crossbar-row allocation):
/// renames registers onto a compact window via linear scan over live
/// intervals.  Inputs keep their ABI slots [0, inputs).  Pulses beat
/// rows: a register whose first access *reads* fresh-row zero stays on
/// a fresh row (a fresh row's zero is free, a recycled row's zero
/// costs a SET0 pulse), while fully-defined registers recycle expired
/// rows.  Passing `max_rows` models a row-constrained crossbar window:
/// once the window is exhausted zero-reliant registers recycle too,
/// with the explicit SET0 clear inserted; throws Error if the live
/// intervals cannot fit the budget at all.
[[nodiscard]] CimProgram compact_registers(
    const CimProgram& program, PassStats* stats = nullptr,
    std::size_t max_rows = kNoRowBudget);

/// Window-packing decision for the packed replay: lane blocks per
/// thread-pool task, sized so short programs amortize the pool hand-off
/// while long programs split at block grain for load balance.
[[nodiscard]] std::size_t packing_block_grain(const PackedProgram& compiled);

/// The full pipeline: (known_state → DCE) to fixpoint, then register
/// compaction.  Validates the result.
[[nodiscard]] CimProgram optimize_program(const CimProgram& program,
                                          PassStats* stats = nullptr);

}  // namespace memcim::isa

// The CRS TC-adder farm — the adder the paper budgets for the
// "10⁶ additions" workload (Table 1, from Siemon et al.,
// arXiv:1410.2031, paper ref [59]): N + 2 devices per N-bit adder (N
// sum cells, one carry cell, one scratch cell), 4N + 5 pulses per
// addition, and the sum left resident in the sum cells.
//
// Per bit i the controller issues 4 pulses: init the carry cell to '0';
// a majority pulse V = (aᵢ + bᵢ + cᵢ − 1.5)·2·V_amp that SETs it exactly
// when ≥ 2 inputs are 1 (the write driver senses the switch, which is
// the carry); init sum cell i to '0'; a parity pulse
// V = (aᵢ + bᵢ + cᵢ − 2·cₒᵤₜ − 0.5)·2·V_amp that SETs it when the bit
// sum is odd.  A prologue (carry preset, scratch stage) and an epilogue
// (destructive carry read + write-back, scratch restore) add 5 pulses.
//
// The farm never walks that schedule pulse by pulse: for every valid
// CrsCellParams it collapses to closed form per slot (write amplitudes
// ±1.1·threshold clear both thresholds, negative pulses cannot move a
// '0' cell, and a free cell only ever rests in '0' or '1'):
//
//   sum      = (a + b) mod 2^N
//   c_out    = bit N of a + b (at N = 64, the unsigned overflow)
//   S        = carries generated, c_1..c_N (c_out included)
//   t_carry  = stale + 2S − 3·c_out + 2        carry-cell transitions
//   t_sum_i  = s_old_i + s_new_i               init-to-0 + parity SET
//   pulses   = 4N + 5 always (the schedule is constant-time)
//
// (`stale` is 1 iff the carry cell still holds the previous add's
// carry-out; the scratch cell never transitions.)
//
// Stuck cells (inject_stuck) keep their pinned state, book no
// transition and absorb every pulse that would have switched them
// (crs_cell.stuck_absorbed), as CrsCell::force_stuck models:
//
//   * a stuck sum cell keeps its pinned bit;
//   * a stuck carry cell never switches, so no carry is ever sensed:
//     the free sum cells latch a | b and the carry-out is 0;
//   * absorbed pulses per add, over the N bit positions, with
//     weak = [−V_amp ≤ v_th3] and strong = [−3·V_amp ≤ v_th3]:
//       sum cell stuck at 1: 1, + weak when its free bit is 0;
//       sum cell stuck at 0 whose free bit is 1: 1;
//       carry stuck at 1: N + 1 + weak·popcount(a ⊕ b)
//                               + strong·popcount(¬(a ∨ b));
//       carry stuck at 0: popcount(a ∧ b) + 1;
//       scratch stuck at 1: 2.
//
// Energy is the delicate part: each CrsCell accrues `energy_ +=
// e_per_switch` per transition — repeated-quantum double accumulation —
// and an add's energy is an ordered fold over the slot's cells (carry,
// scratch, then the sum cells in index order).  The farm keeps
// per-(slot, cell) cumulative transition counts and replays the fold
// through one QuantumSumTable, so every per-op energy double is the one
// the pulse walk reports, bit for bit.  run() grows that table before
// its lane blocks fan out, through the largest count the run can reach
// (the largest count any cell holds, plus ⌈ops/slots⌉ times the most
// one add can raise a count, 2N + 1), and checks once afterwards that
// no cell's count lay past it; inside the fan-out the blocks only read
// it.  A lane block's fault-free slots below width 64 run row by row
// (op rows outer, slots inner, so operands, sums and energies stream
// contiguously), two slots side by side so their dependent energy folds
// interleave; an op's old and new sum words become per-cell increments
// through a byte-spread table.  Slots with a stuck cell, and every slot
// at width 64, walk their ops one at a time instead.
//
// The pulse-by-pulse walk of the schedule on CrsCells
// (tests/support/crs_tc_adder.h) is the farm's test oracle:
// tests/logic/adder_oracle_test.cpp holds the two to equal sums,
// carry-outs, energies and books.
#pragma once

#include <cstdint>
#include <vector>

#include "common/quantum_sum.h"
#include "common/units.h"
#include "device/crs.h"

namespace memcim {

/// Per-run payload, op-indexed; `energies[k]` is op k's switching
/// energy in joules.
struct PackedAddOutcome {
  std::vector<std::uint64_t> sums;
  std::vector<double> energies;
  std::uint64_t transitions = 0;  ///< total cell transitions, all ops
};

class PackedTcAdderFarm {
 public:
  /// A farm of `slots` independent N-bit adders (N = `width`, 1..64),
  /// every cell starting at '0'.  Throws Error for invalid cell
  /// parameters and, before allocating, for more than kMaxCrsCells
  /// cells.
  PackedTcAdderFarm(std::size_t slots, std::size_t width,
                    const CrsCellParams& cell);

  /// Paper cost sheet (Table 1).
  [[nodiscard]] static constexpr std::size_t devices(std::size_t n) {
    return n + 2;
  }
  [[nodiscard]] static constexpr std::size_t steps(std::size_t n) {
    return 4 * n + 5;
  }

  [[nodiscard]] std::size_t slots() const { return slots_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  /// Wall time of one addition: steps(width) pulses of t_pulse.
  [[nodiscard]] Time add_latency() const;

  /// Run `a.size()` additions, op k on slot k % slots and the ops on a
  /// slot in ascending k (the farm's batch schedule).  Operands must fit
  /// the width (Error otherwise).  Lane blocks of 64 slots run
  /// concurrently on the thread pool.  Cell states and energy books
  /// persist across calls.  Books crs_cell.* (nothing while telemetry
  /// is off).
  [[nodiscard]] PackedAddOutcome run(const std::vector<std::uint64_t>& a,
                                     const std::vector<std::uint64_t>& b);

  /// Fault sites: site = slot · devices(width) + cell, where cells
  /// 0..width−1 are the sum cells, width the carry cell and width + 1
  /// the scratch cell.
  [[nodiscard]] std::size_t fault_sites() const {
    return slots_ * devices(width_);
  }
  /// Pin the cell at `site` stuck at logic `stuck_one`: no pulse, no
  /// book, and every later add runs through the broken device.  A
  /// stuck cell can be re-pinned; it is never released.
  void inject_stuck(std::size_t site, bool stuck_one);

  /// The sum latched in a slot's cells (sense-amp side; no pulses).
  [[nodiscard]] std::uint64_t stored_sum(std::size_t slot) const;
  /// The carry-out the slot's last add sensed (false before any add).
  [[nodiscard]] bool carry_out(std::size_t slot) const;

 private:
  /// Stuck cells of one slot; only slots with a stuck cell have one.
  struct StuckSlot {
    std::size_t slot = 0;
    std::uint64_t sum_stuck = 0;  ///< stuck sum cells
    std::uint64_t sum_ones = 0;   ///< of those, the ones pinned at 1
    bool carry_stuck = false;
    bool carry_one = false;
    bool scratch_one = false;  ///< a scratch stuck at 0 changes nothing
  };

  /// The general per-slot path: any width, any stuck cells, one op at
  /// a time down the slot's column.  Returns the slot's transitions and
  /// adds its absorbed pulses to `absorbed`.
  std::uint64_t run_slot(std::size_t s, const StuckSlot& stuck,
                         const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b,
                         const double* table, PackedAddOutcome& out,
                         std::uint64_t& absorbed);

  std::size_t slots_;
  std::size_t width_;
  CrsCellParams cell_;
  std::uint64_t sum_mask_;
  /// Whether the walk's −V_amp and −3·V_amp pulses reach v_th3, the
  /// threshold a cell stuck at 1 absorbs at.
  bool weak_negative_absorbed_;
  bool strong_negative_absorbed_;
  // Per-slot resident state and exact cumulative books.
  std::vector<std::uint64_t> stored_sum_;
  /// Last sensed carry-out; also a free carry cell's resting state.
  std::vector<std::uint8_t> carry_state_;
  std::vector<std::uint64_t> cum_carry_;   ///< carry-cell transitions
  std::vector<std::uint64_t> cum_sum_;     ///< [slot*width + i] sum-cell i
  std::vector<double> e_prev_;             ///< last ordered energy fold
  /// The farm's one energy prefix-sum table, kept across runs (a table
  /// rebuilt per run would redo a long-lived farm's whole history on
  /// every call).  run() grows it to its bound before the lane blocks
  /// fan out; inside the fan-out it is read-only, through data().
  QuantumSumTable energy_sums_;
  /// The largest cumulative transition count of any cell: where the
  /// next run's bound starts.
  std::uint64_t max_count_ = 0;
  std::vector<StuckSlot> stuck_;           ///< sorted by slot
};

}  // namespace memcim

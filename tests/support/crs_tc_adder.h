// CRS crossbar TC-adder — the adder the paper budgets for the
// "10⁶ additions" workload (Table 1, from Siemon et al.,
// arXiv:1410.2031, paper ref [59]):
//
//   * devices per N-bit adder: N + 2,
//   * steps per addition: 4N + 5 (each step one memristor write time),
//   * results stay resident in the crossbar (no readout cost — the
//     computation-in-memory point of the architecture).
//
// Implementation: genuine threshold-logic on CRS cells.  The cell file
// holds N sum cells, one carry cell and one scratch cell.  Per bit i
// the controller issues exactly 4 pulses:
//
//   1. init the carry cell to '0',
//   2. a *majority pulse*: the superposed input levels give the cell
//      V = (aᵢ + bᵢ + cᵢ − 1.5)·V_amp, which exceeds +V_th2 exactly
//      when at least two inputs are 1 → the cell latches the carry-out;
//      the write driver's current monitor observes whether the cell
//      switched, giving the controller the digital carry for free
//      (write-verify sensing),
//   3. init sum cell i to '0',
//   4. a *parity pulse*: V = (aᵢ + bᵢ + cᵢ − 2·cₒᵤₜ − 0.5)·2·V_amp
//      SETs the sum cell exactly when the bit sum is odd.
//
// Prologue/epilogue add the remaining 5 pulses: carry-in preset (1),
// scratch stage/restore (2), and the final carry read + write-back (2).
//
// This pulse-by-pulse walk is the test oracle of the production model,
// PackedTcAdderFarm (src/logic/packed_adder.h), which computes the same
// schedule in closed form; tests/logic/adder_oracle_test.cpp holds the
// two equal.  It also covers the carry-in the farm does not take.
#pragma once

#include <cstdint>
#include <vector>

#include "device/crs.h"

namespace memcim {

struct TcAdderResult {
  std::uint64_t sum = 0;        ///< numeric sum (mod 2^width)
  bool carry_out = false;
  std::uint64_t pulses = 0;     ///< total pulses issued (= 4N+5)
  Time latency{0.0};
  Energy energy{0.0};           ///< CRS switching energy of this add
};

class CrsTcAdder {
 public:
  CrsTcAdder(std::size_t width, const CrsCellParams& cell_params);

  [[nodiscard]] std::size_t width() const { return width_; }

  /// Add two integers (mod 2^width); the sum bits are left latched in
  /// the sum cells.
  [[nodiscard]] TcAdderResult add(std::uint64_t a, std::uint64_t b,
                                  bool carry_in = false);

  /// Read the sum currently latched in the cells (sense-amp side; no
  /// pulses issued).
  [[nodiscard]] std::uint64_t stored_sum() const;

  /// Lifetime cell state transitions across all adds (endurance /
  /// energy-window tally).
  [[nodiscard]] std::uint64_t transitions() const;

  /// Fault-site indexing for inject_stuck(): sites 0..width-1 are the
  /// sum cells, site width the carry cell, site width+1 the scratch
  /// cell — devices(width) sites in total.
  [[nodiscard]] std::size_t fault_sites() const { return width_ + 2; }

  /// Fault injection: pin the cell at `site` stuck at logic
  /// `stuck_one`; every subsequent add runs through the broken device.
  void inject_stuck(std::size_t site, bool stuck_one);

  /// Paper cost sheet.
  [[nodiscard]] static constexpr std::size_t devices(std::size_t n) {
    return n + 2;
  }
  [[nodiscard]] static constexpr std::size_t steps(std::size_t n) {
    return 4 * n + 5;
  }

 private:
  std::size_t width_;
  CrsCellParams params_;
  std::vector<CrsCell> sum_cells_;
  CrsCell carry_cell_;
  CrsCell scratch_cell_;
};

}  // namespace memcim

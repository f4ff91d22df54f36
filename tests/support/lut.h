// Crossbar-mapped look-up tables — Section IV.C(b): "Resistive memories
// can be either used to implement small LUTs for FPGAs (as suggested in
// [83]) or LUTs can be mapped to large-scale crossbar arrays [88, 89]
// to reduce the crossbar array overhead."
//
// A k-input boolean function is stored as 2^k CRS cells (one per input
// minterm); evaluation decodes the input vector to a row address and
// reads the stored cell — one read pulse (plus write-back when the
// stored bit was '0').  Multi-output LUTs share the decode.
//
// No binary runs it: no bench reproduces a figure of the LUT.  It is
// kept with the tests written for it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "crossbar/crs_memory.h"

namespace memcim {

/// A k-input, m-output LUT stored in a CRS memory bank.
class CrsLut {
 public:
  /// Builds the bank: 2^inputs rows × outputs columns.
  CrsLut(std::size_t inputs, std::size_t outputs,
         const CrsCellParams& cell_params);

  [[nodiscard]] std::size_t inputs() const { return inputs_; }
  [[nodiscard]] std::size_t outputs() const { return outputs_; }

  /// Program output column `out` from a truth table evaluated over all
  /// 2^inputs minterm indices (bit i of the index = input i).
  void program(std::size_t out,
               const std::function<bool(std::uint64_t)>& truth);

  /// Program every output from a vector-valued truth function.
  void program_all(
      const std::function<std::vector<bool>(std::uint64_t)>& truth);

  /// Evaluate the LUT: decode + read (write-back accounted by the bank).
  [[nodiscard]] std::vector<bool> evaluate(std::uint64_t input_bits);

  /// Single-output convenience.
  [[nodiscard]] bool evaluate_single(std::uint64_t input_bits);

  /// The backing store (pulse/energy books live there).
  [[nodiscard]] const CrsMemory& memory() const { return memory_; }

 private:
  std::size_t inputs_;
  std::size_t outputs_;
  CrsMemory memory_;
};

/// Map an arbitrary N-bit → M-bit function onto a bank of LUTs with at
/// most `max_inputs` each, Shannon-decomposing on the extra variables.
/// Returns the total number of CRS cells consumed — the crossbar-area
/// figure the paper's refs [88, 89] optimize.
[[nodiscard]] std::size_t lut_cells_for_function(std::size_t inputs,
                                                 std::size_t outputs,
                                                 std::size_t max_inputs);

}  // namespace memcim

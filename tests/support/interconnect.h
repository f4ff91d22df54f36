// Programmable interconnect and resistive PLA — Section IV.C(a):
// "Programmable logic arrays based on resistive switching junctions
// were suggested first in [82] and later also applied to FPGAs [86]. …
// the CMOL FPGA concept [87], where a sea of elementary CMOS cells is
// connected to a small crossbar part-array … via resistive switches
// (1S1R) enabling wired-or functionality."
//
// Two layers are provided:
//
//  * `ProgrammableInterconnect` — a crossbar of CRS junctions between
//    input wires and output wires.  A programmed (LRS-path) junction
//    ties its input onto its output; outputs compute the wired-OR of
//    their connected inputs (CMOL style).  Programming costs real cell
//    pulses/energy; signal propagation is charged per toggled output.
//
//  * `ResistivePla` — the classic two-plane programmable logic array
//    built from two interconnects: an AND plane over the inputs and
//    their complements (product terms) and an OR plane collecting the
//    products per output.  Any sum-of-products function becomes a
//    reconfiguration, not a new circuit — the FPGA argument of [86].
//
// No binary runs either layer: no bench reproduces a figure of theirs.
// They are kept with the tests written for them.
#pragma once

#include <cstdint>
#include <vector>

#include "device/crs.h"

namespace memcim {

class ProgrammableInterconnect {
 public:
  ProgrammableInterconnect(std::size_t inputs, std::size_t outputs,
                           const CrsCellParams& cell_params);

  [[nodiscard]] std::size_t inputs() const { return inputs_; }
  [[nodiscard]] std::size_t outputs() const { return outputs_; }

  /// Program / release the junction between `in` and `out`.
  void connect(std::size_t in, std::size_t out);
  void disconnect(std::size_t in, std::size_t out);
  [[nodiscard]] bool connected(std::size_t in, std::size_t out) const;

  /// Configure a full point-to-point routing: input i drives output
  /// dest_of_input[i] (inputs may share an output — wired-OR).
  void program_routing(const std::vector<std::size_t>& dest_of_input);

  /// True when every output has at most one connected input.
  [[nodiscard]] bool is_point_to_point() const;

  /// Wired-OR propagation: output j = OR of all connected inputs.
  [[nodiscard]] std::vector<bool> propagate(
      const std::vector<bool>& input_bits) const;

  /// Programming cost books (per-cell pulses and switching energy).
  [[nodiscard]] std::uint64_t programming_pulses() const;
  [[nodiscard]] Energy programming_energy() const;

 private:
  [[nodiscard]] CrsCell& at(std::size_t in, std::size_t out);
  [[nodiscard]] const CrsCell& at(std::size_t in, std::size_t out) const;

  std::size_t inputs_;
  std::size_t outputs_;
  std::vector<CrsCell> junctions_;  // row-major inputs × outputs
};

/// One literal of a product term: variable index, possibly complemented.
struct PlaLiteral {
  std::size_t variable = 0;
  bool positive = true;
};

class ResistivePla {
 public:
  ResistivePla(std::size_t inputs, std::size_t product_terms,
               std::size_t outputs, const CrsCellParams& cell_params);

  [[nodiscard]] std::size_t inputs() const { return inputs_; }
  [[nodiscard]] std::size_t product_terms() const { return terms_; }
  [[nodiscard]] std::size_t outputs() const { return outputs_; }

  /// Program product term `term` as the AND of the given literals
  /// (empty literal list = constant true).
  void program_product(std::size_t term, const std::vector<PlaLiteral>& lits);

  /// Attach product term `term` to output `out` (OR plane).
  void attach_product(std::size_t term, std::size_t out);

  /// Evaluate all outputs for an input vector (LSB-first).
  [[nodiscard]] std::vector<bool> evaluate(
      const std::vector<bool>& input_bits) const;

  /// Total junction-programming energy across both planes.
  [[nodiscard]] Energy programming_energy() const;

 private:
  std::size_t inputs_;
  std::size_t terms_;
  std::size_t outputs_;
  /// AND plane: 2·inputs wires (x, ¬x) × terms.  A product term is the
  /// NOR of the *complement* literals' wires — realized as wired-OR
  /// followed by the CMOS cell's inverter (CMOL), giving AND semantics.
  ProgrammableInterconnect and_plane_;
  ProgrammableInterconnect or_plane_;
};

}  // namespace memcim

#include "support/interconnect.h"

#include "common/error.h"

namespace memcim {

ProgrammableInterconnect::ProgrammableInterconnect(
    std::size_t inputs, std::size_t outputs, const CrsCellParams& cell_params)
    : inputs_(inputs), outputs_(outputs) {
  MEMCIM_CHECK_MSG(inputs > 0 && outputs > 0,
                   "interconnect dimensions must be positive");
  junctions_.assign(inputs * outputs, CrsCell(cell_params));
}

CrsCell& ProgrammableInterconnect::at(std::size_t in, std::size_t out) {
  MEMCIM_CHECK_MSG(in < inputs_ && out < outputs_,
                   "junction (" << in << ',' << out << ") out of range");
  return junctions_[in * outputs_ + out];
}

const CrsCell& ProgrammableInterconnect::at(std::size_t in,
                                            std::size_t out) const {
  MEMCIM_CHECK(in < inputs_ && out < outputs_);
  return junctions_[in * outputs_ + out];
}

void ProgrammableInterconnect::connect(std::size_t in, std::size_t out) {
  at(in, out).write(true);
}

void ProgrammableInterconnect::disconnect(std::size_t in, std::size_t out) {
  at(in, out).write(false);
}

bool ProgrammableInterconnect::connected(std::size_t in,
                                         std::size_t out) const {
  return at(in, out).state() == CrsState::kOne;
}

void ProgrammableInterconnect::program_routing(
    const std::vector<std::size_t>& dest_of_input) {
  MEMCIM_CHECK_MSG(dest_of_input.size() == inputs_,
                   "routing vector must name one destination per input");
  for (std::size_t in = 0; in < inputs_; ++in) {
    for (std::size_t out = 0; out < outputs_; ++out)
      if (connected(in, out)) disconnect(in, out);
    connect(in, dest_of_input[in]);
  }
}

bool ProgrammableInterconnect::is_point_to_point() const {
  for (std::size_t out = 0; out < outputs_; ++out) {
    std::size_t drivers = 0;
    for (std::size_t in = 0; in < inputs_; ++in)
      if (connected(in, out)) ++drivers;
    if (drivers > 1) return false;
  }
  return true;
}

std::vector<bool> ProgrammableInterconnect::propagate(
    const std::vector<bool>& input_bits) const {
  MEMCIM_CHECK_MSG(input_bits.size() == inputs_, "input width mismatch");
  std::vector<bool> out(outputs_, false);
  for (std::size_t o = 0; o < outputs_; ++o)
    for (std::size_t in = 0; in < inputs_; ++in)
      if (input_bits[in] && connected(in, o)) {
        out[o] = true;  // wired-OR
        break;
      }
  return out;
}

std::uint64_t ProgrammableInterconnect::programming_pulses() const {
  std::uint64_t total = 0;
  for (const CrsCell& cell : junctions_) total += cell.pulses();
  return total;
}

Energy ProgrammableInterconnect::programming_energy() const {
  Energy total{0.0};
  for (const CrsCell& cell : junctions_) total += cell.energy();
  return total;
}

// ---------------------------------------------------------------------------
// ResistivePla
// ---------------------------------------------------------------------------

ResistivePla::ResistivePla(std::size_t inputs, std::size_t product_terms,
                           std::size_t outputs,
                           const CrsCellParams& cell_params)
    : inputs_(inputs),
      terms_(product_terms),
      outputs_(outputs),
      and_plane_(2 * inputs, product_terms, cell_params),
      or_plane_(product_terms, outputs, cell_params) {
  MEMCIM_CHECK(inputs > 0 && product_terms > 0 && outputs > 0);
}

void ResistivePla::program_product(std::size_t term,
                                   const std::vector<PlaLiteral>& lits) {
  MEMCIM_CHECK_MSG(term < terms_, "product term out of range");
  // Clear the term's column first.
  for (std::size_t w = 0; w < 2 * inputs_; ++w)
    if (and_plane_.connected(w, term)) and_plane_.disconnect(w, term);
  // AND(x,…) = NOR(¬x,…): connect the *complement* wire of each
  // positive literal (and the true wire of each negative literal); the
  // CMOS cell inverts the wired-OR.
  for (const PlaLiteral& lit : lits) {
    MEMCIM_CHECK_MSG(lit.variable < inputs_, "literal variable out of range");
    const std::size_t wire =
        lit.positive ? inputs_ + lit.variable : lit.variable;
    and_plane_.connect(wire, term);
  }
}

void ResistivePla::attach_product(std::size_t term, std::size_t out) {
  MEMCIM_CHECK(term < terms_ && out < outputs_);
  or_plane_.connect(term, out);
}

std::vector<bool> ResistivePla::evaluate(
    const std::vector<bool>& input_bits) const {
  MEMCIM_CHECK_MSG(input_bits.size() == inputs_, "PLA input width mismatch");
  // Drive the AND plane with (x…, ¬x…).
  std::vector<bool> wires(2 * inputs_);
  for (std::size_t i = 0; i < inputs_; ++i) {
    wires[i] = input_bits[i];
    wires[inputs_ + i] = !input_bits[i];
  }
  // Wired-OR then CMOS inversion = the product terms.
  std::vector<bool> nor_in = and_plane_.propagate(wires);
  std::vector<bool> products(terms_);
  for (std::size_t t = 0; t < terms_; ++t) products[t] = !nor_in[t];
  // OR plane collects products per output.
  return or_plane_.propagate(products);
}

Energy ResistivePla::programming_energy() const {
  return and_plane_.programming_energy() + or_plane_.programming_energy();
}

}  // namespace memcim

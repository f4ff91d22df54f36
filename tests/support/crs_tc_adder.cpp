#include "support/crs_tc_adder.h"

#include "common/error.h"

namespace memcim {

CrsTcAdder::CrsTcAdder(std::size_t width, const CrsCellParams& cell_params)
    : width_(width),
      params_(cell_params),
      carry_cell_(cell_params),
      scratch_cell_(cell_params) {
  MEMCIM_CHECK_MSG(width >= 1 && width <= 64, "width must be 1..64");
  sum_cells_.assign(width, CrsCell(cell_params));
}

TcAdderResult CrsTcAdder::add(std::uint64_t a, std::uint64_t b, bool carry_in) {
  const std::uint64_t pulses_before = [&] {
    std::uint64_t total = carry_cell_.pulses() + scratch_cell_.pulses();
    for (const auto& cell : sum_cells_) total += cell.pulses();
    return total;
  }();
  const Energy energy_before = [&] {
    Energy total = carry_cell_.energy() + scratch_cell_.energy();
    for (const auto& cell : sum_cells_) total += cell.energy();
    return total;
  }();

  // Pulse amplitude that clears both full-write thresholds.
  const double v_amp = params_.v_th2.value() * 1.1;

  // Prologue (2 pulses): preset carry-in, stage scratch.
  carry_cell_.write(carry_in);
  scratch_cell_.write(false);

  bool carry = carry_in;
  for (std::size_t i = 0; i < width_; ++i) {
    const double ai = (a >> i) & 1u ? 1.0 : 0.0;
    const double bi = (b >> i) & 1u ? 1.0 : 0.0;
    const double ci = carry ? 1.0 : 0.0;

    // (1) init carry cell — its previous value is already consumed.
    carry_cell_.write(false);
    // (2) majority pulse: ≥ 2 ones → V ≥ +0.5·v_amp·2 clears V_th2.
    const CrsState carry_before = carry_cell_.state();
    carry_cell_.apply_pulse(Voltage((ai + bi + ci - 1.5) * 2.0 * v_amp));
    // Write-verify sensing: the driver observes the switch event.
    carry = carry_cell_.state() != carry_before;

    // (3) init sum cell.
    sum_cells_[i].write(false);
    // (4) parity pulse: bitsum − 2·carry ∈ {0,1}.
    const double parity = ai + bi + ci - 2.0 * (carry ? 1.0 : 0.0);
    sum_cells_[i].apply_pulse(Voltage((parity - 0.5) * 2.0 * v_amp));
  }

  // Epilogue (3 pulses): final carry read (+ write-back when the read
  // was destructive — we charge the pulse unconditionally to keep the
  // schedule constant-time) and scratch restore.
  const CrsReadResult carry_read = carry_cell_.read();
  if (carry_read.destructive)
    carry_cell_.write(false);
  else
    carry_cell_.apply_pulse(Voltage(0.0));  // timing placeholder pulse
  scratch_cell_.write(false);

  TcAdderResult result;
  result.carry_out = carry;
  result.sum = stored_sum();
  std::uint64_t pulses_after = carry_cell_.pulses() + scratch_cell_.pulses();
  for (const auto& cell : sum_cells_) pulses_after += cell.pulses();
  result.pulses = pulses_after - pulses_before;
  result.latency = params_.t_pulse * static_cast<double>(result.pulses);
  Energy energy_after = carry_cell_.energy() + scratch_cell_.energy();
  for (const auto& cell : sum_cells_) energy_after += cell.energy();
  result.energy = energy_after - energy_before;
  return result;
}

void CrsTcAdder::inject_stuck(std::size_t site, bool stuck_one) {
  MEMCIM_CHECK_MSG(site < fault_sites(), "fault site out of range");
  const CrsState pinned = stuck_one ? CrsState::kOne : CrsState::kZero;
  if (site < width_)
    sum_cells_[site].force_stuck(pinned);
  else if (site == width_)
    carry_cell_.force_stuck(pinned);
  else
    scratch_cell_.force_stuck(pinned);
}

std::uint64_t CrsTcAdder::transitions() const {
  std::uint64_t total = carry_cell_.transitions() + scratch_cell_.transitions();
  for (const auto& cell : sum_cells_) total += cell.transitions();
  return total;
}

std::uint64_t CrsTcAdder::stored_sum() const {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width_; ++i)
    if (sum_cells_[i].state() == CrsState::kOne)
      value |= (std::uint64_t{1} << i);
  return value;
}

}  // namespace memcim

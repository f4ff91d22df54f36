// Mesh NoC technology parameters and the Orion-style router power
// model.
//
// The paper's architecture is an *array* of CIM tiles (Figure 2); once
// more than one crossbar computes, the inter-tile communication fabric
// has to be costed, not assumed.  This header parameterizes a 2-D mesh
// of 5-port wormhole-ish routers (N/E/S/W/Local) the way Orion costs a
// matrix crossbar router (Graphite/ATAC `contrib/orion/Crossbar`):
// every per-event energy is a switched wire capacitance,
//
//   E_event = 1/2 · C_wire · Vdd²  per toggling wire,
//
// with the crossbar input/output line lengths derived from the port
// count, flit width and crossbar cell pitch exactly as Orion's
// MatrixCrossbar::init() derives them:
//
//   len_in  = num_out · wires · cell_pitch
//   len_out = num_in  · wires · cell_pitch
//
// On an average flit, half the data wires toggle (Orion's `is_max_ ?
// 1 : 0.5` factor); the select (control) line always charges fully.
// The derived per-flit-event energies live in RouterPowerModel so the
// simulator pays one multiply per event and reconciliation tests can
// recompute the totals from event counts exactly.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/units.h"

namespace memcim {

/// CMOS interconnect constants for the tile-to-tile network.  The NoC
/// is conventional CMOS (it is the controller side of Figure 2, not
/// the memristive array), so these sit next to the 22 nm FinFET column
/// of Table 1.
struct NocTech {
  Voltage vdd{0.9};                        ///< 22 nm-class supply
  /// Matrix-crossbar cell pitch (one crosspoint per wire pair); the
  /// Orion 65 nm CrsbarCellWidth scaled to the 22 nm node.
  Length xbar_cell_pitch{0.2e-6};
  /// Coupled intermediate-metal wire capacitance (Orion CC3metal).
  CapacitancePerLength wire_cap{2.5e-10};  ///< 0.25 fF/µm
  /// Buffer storage cell capacitance per bit (register-file cell gate
  /// plus bitline share).
  Capacitance buffer_bit_cap{1.5e-15};
};

/// One mesh NoC configuration.  Latency unit is the router cycle: one
/// hop costs one cycle of buffer-to-buffer forwarding, one flit per
/// link per cycle.
struct NocParams {
  std::size_t flit_payload_bits = 64;  ///< data wires per link
  /// Physical wires per link: payload plus one even-parity wire (the
  /// detection channel the fault campaigns exercise).
  [[nodiscard]] std::size_t link_wires() const { return flit_payload_bits + 1; }
  std::size_t buffer_flits = 4;        ///< input FIFO depth per port
  Time cycle{1e-9};                    ///< 1 GHz interface clock (Table 1)
  Length link_length{1e-3};            ///< 1 mm tile-to-tile wire
  NocTech tech{};
};

/// Flits needed to carry `bits` of payload (at least one).
[[nodiscard]] inline std::size_t flits_for_bits(std::size_t bits,
                                                const NocParams& params) {
  return std::max<std::size_t>(
      1, (bits + params.flit_payload_bits - 1) / params.flit_payload_bits);
}

/// Per-event dynamic energies of one router, derived Orion-style from
/// NocParams.  All four quanta are fixed once the parameters are, so
/// total energy is exactly (event count × quantum) per class.
struct RouterPowerModel {
  Energy buffer_write;    ///< one flit written into an input FIFO
  Energy buffer_read;     ///< one flit popped from an input FIFO
  Energy xbar_traversal;  ///< one flit through the 5×5 matrix crossbar
  Energy link_traversal;  ///< one flit over one inter-router link

  [[nodiscard]] static RouterPowerModel derive(const NocParams& params);
};

}  // namespace memcim

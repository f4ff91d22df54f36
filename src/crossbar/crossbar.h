// Passive crossbar array with a self-consistent resistive-network
// solver — the physical substrate of the CIM architecture ("a very
// dense crossbar array where memristors are injected at each junction
// of the crossbar", Section III.A).
//
// Two network fidelities are supported:
//
//  * kLumpedLines  — each word/bit line is one electrical node (wire
//    resistance neglected).  Unknown count is rows+cols, which scales
//    to the large arrays of the Figure 3 sweep.
//  * kDistributed  — every junction gets a node on its row wire and on
//    its column wire, with wire segment resistance between neighbours
//    (2·rows·cols unknowns).  This exposes IR-drop along the lines.
//
// Nonlinear junctions (selectors, CRS, sinh I–V devices) are handled by
// damped fixed-point iteration on the junction chord conductances; both
// models run through the same loop (docs/SOLVER.md).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "crossbar/bias.h"
#include "device/device.h"

namespace memcim {

enum class NetworkModel {
  kLumpedLines,
  kDistributed,
};

[[nodiscard]] const char* to_string(NetworkModel m);

struct CrossbarConfig {
  std::size_t rows = 0;
  std::size_t cols = 0;
  NetworkModel model = NetworkModel::kLumpedLines;
  /// Wire resistance of one segment between adjacent junctions
  /// (kDistributed only).
  Resistance wire_segment{1.0};
  /// Source impedance of every line driver; 0 = ideal drivers.
  Resistance driver{0.0};
  /// Linear-backend crossover: systems with at most this many unknowns
  /// go to dense LU, larger ones to Jacobi-preconditioned CG.  Applies
  /// to both network models.
  std::size_t dense_solver_max_unknowns = 200;
  /// Assemble the nodal CSR structure once per solve and refresh only
  /// junction conductances on later sweeps.  Off = re-assemble every
  /// sweep (the pre-overhaul behavior, kept for benchmarking).
  bool reuse_structure = true;
  /// Seed each solve's node voltages (and each sweep's CG) from the
  /// previous solution.  Off = cold-start every time.
  bool warm_start = true;
};

/// Solution of one bias pattern.
struct CrossbarSolution {
  /// Potential of each row/column line node.  For kDistributed these are
  /// the potentials at the junction nearest the driver end; full nodal
  /// detail is in device_voltage.
  std::vector<double> row_voltage;
  std::vector<double> col_voltage;
  /// Voltage across each junction stack, row-major [r*cols + c].
  std::vector<double> device_voltage;
  /// Current through each junction (positive = row→col), row-major.
  std::vector<double> device_current;
  /// Net current delivered by each driven row/col terminal (amps,
  /// positive = flowing from the source into the array).  Zero for
  /// floating lines.
  std::vector<double> row_terminal_current;
  std::vector<double> col_terminal_current;
  std::size_t nonlinear_iterations = 0;
  bool converged = false;

  [[nodiscard]] Current device_i(std::size_t r, std::size_t c,
                                 std::size_t cols) const {
    return Current(device_current[r * cols + c]);
  }
};

class CrossbarArray {
 public:
  /// Build a rows×cols array whose every junction is a clone of
  /// `prototype`.  Throws memcim::Error, before it allocates, unless rows
  /// and cols are positive with at most kMaxCrsCells junctions,
  /// wire_segment is finite and positive and driver is finite and not
  /// negative.
  CrossbarArray(const CrossbarConfig& config, const Device& prototype);

  [[nodiscard]] std::size_t rows() const { return config_.rows; }
  [[nodiscard]] std::size_t cols() const { return config_.cols; }
  [[nodiscard]] const CrossbarConfig& config() const { return config_; }

  [[nodiscard]] Device& device(std::size_t r, std::size_t c);
  [[nodiscard]] const Device& device(std::size_t r, std::size_t c) const;

  /// Store a bit as LRS (true) / HRS (false) directly into the device
  /// state — the "ideal programming" shortcut used to set up patterns.
  void store_bit(std::size_t r, std::size_t c, bool bit);
  [[nodiscard]] bool stored_bit(std::size_t r, std::size_t c) const;

  /// Solve the network for a bias pattern.  Throws on malformed bias
  /// vectors; returns converged=false if the nonlinear loop stalls.
  [[nodiscard]] CrossbarSolution solve(const LineBias& bias) const;

  /// Solve, then advance every device state by `dt` under its solved
  /// junction voltage (one transient step — a write/disturb pulse).
  CrossbarSolution apply_pulse(const LineBias& bias, Time dt);

  /// Sum of all junction dissipation during the last apply_pulse.
  [[nodiscard]] Energy total_device_energy() const;

 private:
  CrossbarConfig config_;
  std::vector<std::unique_ptr<Device>> devices_;  // row-major

  /// Warm-start cache: node voltages of the previous solve, reused as
  /// the next solve's initial guess (and the CG seed) when
  /// config_.warm_start is on.  Mutable bookkeeping only — the solution
  /// a solve converges to is unchanged; concurrent solve() calls on the
  /// *same* array are not supported (distinct arrays are fine, which is
  /// what the workload fan-out uses).
  mutable std::vector<double> warm_;
};

}  // namespace memcim

// Complementary Resistive Switch (CRS) — two anti-serially connected
// bipolar memristive devices (Linn et al., Nature Materials 2010 —
// paper ref [78]; Figures 3 and 4 of the paper).
//
// The CRS is the paper's flagship sneak-path solution: both logical
// states ('0' = A:HRS/B:LRS, '1' = A:LRS/B:HRS) present a high
// resistance at low bias, so unselected cells never form low-resistance
// sneak paths.  Reading applies V_read ∈ (V_th1, V_th2): a cell in '0'
// switches to the transient ON state (both LRS) and produces a current
// spike — a *destructive* read that requires write-back — while a cell
// in '1' stays quiet.
//
// Two implementations are provided:
//
//  * `CrsDevice` — circuit-level: an actual series stack of two
//    `Device` models with the internal node solved self-consistently.
//    This is what traces the Figure 4 I–V butterfly.
//  * `CrsCell`  — behavioural threshold state machine with per-event
//    energy/step accounting; the fast model used by the logic and
//    memory layers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "device/device.h"

namespace memcim {

/// Logical state of a CRS stack.
enum class CrsState {
  kZero,      ///< A:HRS, B:LRS — stores logic 0
  kOne,       ///< A:LRS, B:HRS — stores logic 1
  kOn,        ///< both LRS — transient, after reading a '0'
  kUndefined  ///< both HRS — unformed / disturbed
};

[[nodiscard]] const char* to_string(CrsState s);

// ---------------------------------------------------------------------------
// Circuit-level CRS.
// ---------------------------------------------------------------------------
class CrsDevice final : public Device {
 public:
  /// Takes ownership of the two constituent bipolar devices.  Device B
  /// is mounted anti-serially: a positive stack voltage appears as a
  /// negative voltage in B's own frame.
  CrsDevice(std::unique_ptr<Device> a, std::unique_ptr<Device> b);

  CrsDevice(const CrsDevice& other);
  CrsDevice& operator=(const CrsDevice& other);

  [[nodiscard]] Current current(Voltage v) const override;
  void apply(Voltage v, Time dt) override;
  /// min(x_A, x_B): the stack conducts only when both devices are LRS.
  [[nodiscard]] double state() const override;
  /// Sets both constituent devices to `x` (mainly for tests).
  void set_state(double x) override;
  [[nodiscard]] std::unique_ptr<Device> clone() const override;

  /// Classify the constituent states into the CRS logical state.
  [[nodiscard]] CrsState logic_state() const;

  /// Put the stack into a given logical state directly.
  void force_state(CrsState s);

  [[nodiscard]] const Device& device_a() const { return *a_; }
  [[nodiscard]] const Device& device_b() const { return *b_; }

  /// Voltage across device A when `v` is applied to the stack (the
  /// internal-node solution); exposed for tests.
  [[nodiscard]] Voltage split_voltage(Voltage v) const;

 private:
  std::unique_ptr<Device> a_;
  std::unique_ptr<Device> b_;
};

/// One point of a quasi-static I–V sweep.
struct IvPoint {
  Voltage v;
  Current i;
  CrsState state;
};

/// Drive a triangular voltage sweep 0 → +v_max → −v_max → 0 with
/// `steps_per_leg` points per leg, holding each bias for `dwell`.
/// Returns the full trace — this regenerates Figure 4.
[[nodiscard]] std::vector<IvPoint> sweep_iv(CrsDevice& crs, Voltage v_max,
                                            std::size_t steps_per_leg,
                                            Time dwell);

// ---------------------------------------------------------------------------
// Behavioural CRS cell.
// ---------------------------------------------------------------------------
struct CrsCellParams {
  Voltage v_th1{1.0};   ///< '0' → ON (positive)
  Voltage v_th2{2.0};   ///< ON / '0' → '1' (positive)
  Voltage v_th3{-1.0};  ///< '1' → ON (negative)
  Voltage v_th4{-2.0};  ///< ON / '1' → '0' (negative)
  Voltage v_read{1.5};  ///< read amplitude, must lie in (v_th1, v_th2)
  Time t_pulse{200e-12};        ///< write/read pulse width (200 ps, Table 1)
  Energy e_per_switch{1e-15};   ///< dynamic energy per state change (1 fJ, Table 1)
  Resistance r_lrs{10e3};       ///< single-device LRS for ON-current estimate
};

/// Throws Error unless 0 < v_th1 < v_read < v_th2 and v_th4 < v_th3 < 0
/// (the threshold ladder every CRS model here relies on), every
/// threshold and v_read is finite, and t_pulse, e_per_switch and r_lrs
/// are finite and positive.
void check_crs_cell_params(const CrsCellParams& params);

/// Ceiling on the CRS cells one structure (a CrsMemory bank, a CrsCam,
/// a TC-adder farm) may hold, and on a CrossbarArray's junctions,
/// checked before it allocates.  Each keeps at least 3 bits of state
/// per cell and CrsMemory 8 bytes (its per-cell transition book), so
/// 2^32 cells already asks for 1.5 to 32 GiB, far past any array the
/// paper sizes or a host here holds.  A larger shape is a configuration
/// error: the ceiling turns it into memcim::Error instead of
/// std::bad_alloc.
inline constexpr std::uint64_t kMaxCrsCells = std::uint64_t{1} << 32;

namespace detail {
/// Book CRS cell events on the crs_cell.* counters (nothing while
/// telemetry is off): `pulses` pulses, `transitions` state changes at
/// params.e_per_switch each, and `absorbed` pulses a stuck cell absorbed.
/// CrsCell books pulse by pulse; CrsMemory books a word transaction at
/// once, with the same totals.
void book_crs_cell_events(const CrsCellParams& params, std::uint64_t pulses,
                          std::uint64_t transitions, std::uint64_t absorbed);
}  // namespace detail

/// Outcome of a CrsCell::read().
struct CrsReadResult {
  bool bit = false;          ///< stored logical value
  bool destructive = false;  ///< true iff the read moved the cell to ON
  Current spike;             ///< ON current seen by the sense amp (0 if none)
};

class CrsCell {
 public:
  explicit CrsCell(const CrsCellParams& params = {}, CrsState initial = CrsState::kZero);

  [[nodiscard]] CrsState state() const { return state_; }
  [[nodiscard]] const CrsCellParams& params() const { return params_; }

  /// Apply one voltage pulse of the configured width; updates state per
  /// the threshold diagram of Figure 4.
  void apply_pulse(Voltage v);

  /// Silently place the cell in `s`: no pulse, no transition count, no
  /// switching energy.  This is the modelling fixup used when a fault
  /// hook forces a register value that never came from a real pulse
  /// (Fabric::pin); genuine writes go through write()/apply_pulse().
  /// A stuck cell ignores it, exactly like a real pulse.
  void set_state(CrsState s);

  /// Write a logical bit (single full-amplitude pulse).
  void write(bool bit);

  /// Read per the paper's protocol: pulse at +v_read; a '0' cell goes ON
  /// and spikes.  Does NOT write back — callers decide (see
  /// read_with_writeback()).
  [[nodiscard]] CrsReadResult read();

  /// Read and restore the '0' state if the read was destructive; this is
  /// the complete memory-read transaction of Section IV.B.
  [[nodiscard]] CrsReadResult read_with_writeback();

  /// Fault injection: pin the cell to `pinned` — every later pulse is
  /// absorbed without a state change (a stuck/failed device).  Pulses
  /// are still counted (the controller keeps issuing them); switching
  /// energy stops accruing because nothing switches.
  void force_stuck(CrsState pinned);
  /// Release a previously injected stuck fault; the cell keeps the
  /// pinned state but responds to pulses again.
  void clear_stuck();
  [[nodiscard]] bool stuck() const { return stuck_.has_value(); }

  /// Cumulative energy of all state changes.
  [[nodiscard]] Energy energy() const { return energy_; }
  /// Number of state transitions (endurance proxy).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  /// Total pulses applied (each takes t_pulse).
  [[nodiscard]] std::uint64_t pulses() const { return pulses_; }

 private:
  void transition_to(CrsState next);
  /// Threshold ladder of Figure 4: advance state_ for one pulse of
  /// amplitude vv (no pulse/telemetry bookkeeping — apply_pulse does
  /// that once per pulse).
  void step_state(double vv);

  CrsCellParams params_;
  CrsState state_;
  std::optional<CrsState> stuck_;
  Energy energy_{0.0};
  std::uint64_t transitions_ = 0;
  std::uint64_t pulses_ = 0;
};

}  // namespace memcim

// Read/write transactions and sense-margin analysis on crossbar arrays.
//
// This module quantifies the sneak-path problem of Section IV.B: "due
// to the low resistive current paths, the maximum array is limited to
// small arrays [76]" (Flocke's analysis).  measure_read_margin() senses
// a target cell against the worst-case background pattern, and
// margin_vs_size() sweeps the array size until the margin collapses —
// the series regenerated by bench_fig3_junctions.
#pragma once

#include <cstddef>
#include <vector>

#include "crossbar/crossbar.h"

namespace memcim {

struct ReadConfig {
  Voltage v_read{1.0};
  BiasScheme scheme = BiasScheme::kGrounded;
};

struct WriteConfig {
  Voltage v_write{2.0};
  Time pulse{200e-12};
  BiasScheme scheme = BiasScheme::kVHalf;
};

/// Sensed-current pair for a target cell in both states, with the
/// derived discrimination figures.
struct ReadMeasurement {
  Current i_lrs;        ///< sensed column current, target programmed LRS
  Current i_hrs;        ///< sensed column current, target programmed HRS
  double on_off_ratio;  ///< i_lrs / i_hrs
  double margin;        ///< (i_lrs − i_hrs) / i_lrs  ∈ (−∞, 1]
  /// Current delivered by the selected row's driver in the LRS case —
  /// the read-power proxy used by the bias-scheme ablation.
  Current i_source_lrs;
};

/// For 1T1R arrays: enable only the selected cell's access transistor
/// (and disable every other gate).  No-op for junctions that are not
/// TransistorDevice.
void configure_transistor_gates(CrossbarArray& array, std::size_t r,
                                std::size_t c);

/// Program `array` with the worst-case read pattern for cell (r, c):
/// every *other* cell LRS (maximum sneak current), target per `target_lrs`.
void program_worst_case_pattern(CrossbarArray& array, std::size_t r,
                                std::size_t c, bool target_lrs);

/// Measure the read discrimination of cell (r, c) under the worst-case
/// background.  Mutates the array's stored pattern (callers re-program
/// afterwards if needed).
[[nodiscard]] ReadMeasurement measure_read_margin(CrossbarArray& array,
                                                  std::size_t r, std::size_t c,
                                                  const ReadConfig& config);

/// Read the stored bit of cell (r, c) by sensing the selected column
/// current and thresholding at the geometric mean of the reference
/// currents in `reference`.
[[nodiscard]] bool read_bit(const CrossbarArray& array, std::size_t r,
                            std::size_t c, const ReadConfig& config,
                            const ReadMeasurement& reference);

/// Result of a write transaction.
struct WriteResult {
  bool success = false;     ///< target reached the intended digital state
  double max_disturb = 0.0; ///< largest |Δstate| among non-target cells
  Energy array_energy{0.0}; ///< total device dissipation of the pulse
};

/// Write one bit with a single pulse under the configured bias scheme.
/// bit = true SETs (positive pulse), bit = false RESETs (negative).
[[nodiscard]] WriteResult write_bit(CrossbarArray& array, std::size_t r,
                                    std::size_t c, bool bit,
                                    const WriteConfig& config);

/// Result of a multistage (self-referenced) read — the Zidan-style
/// technique of paper ref [80]: sense the cell, rewrite it to a known
/// state, sense again, decide from the *relative* drop, then restore.
struct MultistageReadResult {
  bool bit = false;
  /// 1 − I_initial/I_reference: ≈ 0 when the cell was LRS, positive
  /// when it was HRS.  Self-referencing removes the need for a global
  /// calibration (each cell is compared with itself), but the drop
  /// magnitude still shrinks as the sneak background grows — the sense
  /// amp needs resolution ≈ I_cell/I_total, which falls roughly as 1/N
  /// on worst-case passive arrays.
  double relative_drop = 0.0;
  std::size_t extra_pulses = 0;  ///< write pulses spent beyond the reads
};

/// Multistage read of cell (r, c).  Destructive-but-restoring: the cell
/// is written to LRS for the reference phase and restored afterwards.
/// `decision_threshold` is the relative-drop cutoff; calibrate it to
/// about half the expected HRS drop at the operating array size (see
/// calibrate_multistage_threshold()).
[[nodiscard]] MultistageReadResult multistage_read_bit(
    CrossbarArray& array, std::size_t r, std::size_t c,
    const ReadConfig& config, const WriteConfig& write_config,
    double decision_threshold = 0.25);

/// Measure the worst-case HRS relative drop on `array` (corner cell,
/// all-LRS background) and return half of it — the natural decision
/// threshold for multistage reads on arrays of this size.  Restores the
/// array to the worst-case pattern it programs.
[[nodiscard]] double calibrate_multistage_threshold(
    CrossbarArray& array, const ReadConfig& config,
    const WriteConfig& write_config);

/// One point of the margin-vs-size series.
struct MarginPoint {
  std::size_t size = 0;  ///< square array dimension N
  double margin = 0.0;
  double on_off_ratio = 1.0;
};

/// Worst-case read margin for N×N arrays built from `prototype`, for
/// each N in `sizes` (corner cell 0,0 is sensed: longest sneak paths).
[[nodiscard]] std::vector<MarginPoint> margin_vs_size(
    const Device& prototype, const CrossbarConfig& base_config,
    const ReadConfig& read, const std::vector<std::size_t>& sizes);

}  // namespace memcim

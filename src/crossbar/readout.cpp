#include "crossbar/readout.h"

#include <cmath>

#include "common/error.h"
#include "crossbar/selector.h"

namespace memcim {

void program_worst_case_pattern(CrossbarArray& array, std::size_t r,
                                std::size_t c, bool target_lrs) {
  for (std::size_t i = 0; i < array.rows(); ++i)
    for (std::size_t j = 0; j < array.cols(); ++j)
      array.store_bit(i, j, true);
  array.store_bit(r, c, target_lrs);
}

void configure_transistor_gates(CrossbarArray& array, std::size_t r,
                                std::size_t c) {
  for (std::size_t i = 0; i < array.rows(); ++i)
    for (std::size_t j = 0; j < array.cols(); ++j)
      if (auto* t = dynamic_cast<TransistorDevice*>(&array.device(i, j)))
        t->set_gate(i == r && j == c);
}

namespace {

struct SenseSample {
  Current column;  ///< current flowing out into the grounded column
  Current source;  ///< current delivered by the selected row driver
};

SenseSample sense_column(const CrossbarArray& array, std::size_t r,
                         std::size_t c, const ReadConfig& config) {
  const LineBias bias = access_bias(array.rows(), array.cols(), r, c,
                                    config.v_read, config.scheme);
  const CrossbarSolution sol = array.solve(bias);
  // Positive current flows out of the array into the grounded column.
  return {Current(-sol.col_terminal_current[c]),
          Current(sol.row_terminal_current[r])};
}

}  // namespace

ReadMeasurement measure_read_margin(CrossbarArray& array, std::size_t r,
                                    std::size_t c, const ReadConfig& config) {
  configure_transistor_gates(array, r, c);
  ReadMeasurement meas;
  program_worst_case_pattern(array, r, c, /*target_lrs=*/true);
  const SenseSample lrs = sense_column(array, r, c, config);
  meas.i_lrs = lrs.column;
  meas.i_source_lrs = lrs.source;
  program_worst_case_pattern(array, r, c, /*target_lrs=*/false);
  meas.i_hrs = sense_column(array, r, c, config).column;
  MEMCIM_CHECK_MSG(meas.i_lrs.value() > 0.0,
                   "sensed LRS current must be positive — check bias setup");
  meas.on_off_ratio = meas.i_lrs.value() / meas.i_hrs.value();
  meas.margin = (meas.i_lrs.value() - meas.i_hrs.value()) / meas.i_lrs.value();
  return meas;
}

bool read_bit(const CrossbarArray& array, std::size_t r, std::size_t c,
              const ReadConfig& config, const ReadMeasurement& reference) {
  const Current sensed = sense_column(array, r, c, config).column;
  const double threshold =
      std::sqrt(reference.i_lrs.value() *
                std::max(reference.i_hrs.value(), 1e-18));
  return sensed.value() >= threshold;
}

WriteResult write_bit(CrossbarArray& array, std::size_t r, std::size_t c,
                      bool bit, const WriteConfig& config) {
  const std::size_t m = array.rows(), n = array.cols();
  std::vector<double> before(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      before[i * n + j] = array.device(i, j).state();
  const Energy e_before = array.total_device_energy();

  const Voltage amplitude =
      bit ? config.v_write : Voltage(-config.v_write.value());
  const LineBias bias = access_bias(m, n, r, c, amplitude, config.scheme);
  (void)array.apply_pulse(bias, config.pulse);

  WriteResult result;
  result.success = array.device(r, c).is_lrs() == bit;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == r && j == c) continue;
      result.max_disturb =
          std::max(result.max_disturb,
                   std::abs(array.device(i, j).state() - before[i * n + j]));
    }
  result.array_energy = array.total_device_energy() - e_before;
  return result;
}

MultistageReadResult multistage_read_bit(CrossbarArray& array, std::size_t r,
                                         std::size_t c,
                                         const ReadConfig& config,
                                         const WriteConfig& write_config,
                                         double decision_threshold) {
  MultistageReadResult result;
  // Stage 1: sense as stored.
  const double i_initial = sense_column(array, r, c, config).column.value();
  // Stage 2: write the cell to LRS and sense the self-reference.  The
  // background (sneak paths, half-select leaks) is identical in both
  // stages, so the ratio isolates the cell.
  (void)write_bit(array, r, c, true, write_config);
  ++result.extra_pulses;
  const double i_reference = sense_column(array, r, c, config).column.value();
  MEMCIM_CHECK_MSG(i_reference > 0.0, "multistage reference current <= 0");
  result.relative_drop = 1.0 - i_initial / i_reference;
  result.bit = result.relative_drop < decision_threshold;
  // Stage 3: restore when the cell had been HRS.
  if (!result.bit) {
    (void)write_bit(array, r, c, false, write_config);
    ++result.extra_pulses;
  }
  return result;
}

double calibrate_multistage_threshold(CrossbarArray& array,
                                      const ReadConfig& config,
                                      const WriteConfig& write_config) {
  program_worst_case_pattern(array, 0, 0, /*target_lrs=*/false);
  // A negative threshold forces the HRS verdict so the restore stage
  // puts the probed cell back to HRS.
  const MultistageReadResult probe = multistage_read_bit(
      array, 0, 0, config, write_config, /*decision_threshold=*/-1.0);
  return probe.relative_drop / 2.0;
}

std::vector<MarginPoint> margin_vs_size(const Device& prototype,
                                        const CrossbarConfig& base_config,
                                        const ReadConfig& read,
                                        const std::vector<std::size_t>& sizes) {
  std::vector<MarginPoint> points;
  points.reserve(sizes.size());
  for (std::size_t n : sizes) {
    MEMCIM_CHECK(n >= 2);
    CrossbarConfig cfg = base_config;
    cfg.rows = n;
    cfg.cols = n;
    CrossbarArray array(cfg, prototype);
    const ReadMeasurement meas = measure_read_margin(array, 0, 0, read);
    points.push_back({n, meas.margin, meas.on_off_ratio});
  }
  return points;
}

}  // namespace memcim

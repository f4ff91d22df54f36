// Test oracle for CrsCam (src/logic/cam.h): the per-cell CAM the
// bit-sliced planes replaced.  Every stored bit is a value CrsCell and
// a mask CrsCell, each row write pulses all of them one by one (so the
// device model books crs_cell.* pulse by pulse), stuck faults pin the
// value cell through CrsCell::force_stuck, and a search walks the rows
// in order, adding one e_per_switch to a fresh accumulator per
// mismatching cell.  Same calls and results as CrsCam; no telemetry of
// its own.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "device/crs.h"
#include "logic/cam.h"

namespace memcim {

class CellGridCam {
 public:
  explicit CellGridCam(const CamConfig& config);

  void write_row(std::size_t row, const std::vector<bool>& word);
  void write_row_ternary(std::size_t row, const std::vector<CamBit>& word);
  void erase_row(std::size_t row);
  [[nodiscard]] std::vector<CamBit> read_row(std::size_t row) const;
  [[nodiscard]] CamSearchResult search(const std::vector<bool>& key);
  [[nodiscard]] std::optional<std::size_t> search_first(
      const std::vector<bool>& key);
  void inject_stuck(std::size_t row, std::size_t bit, bool stuck_one);

  [[nodiscard]] std::uint64_t searches() const { return searches_; }
  [[nodiscard]] Energy total_energy() const { return total_energy_; }

 private:
  struct Row {
    std::vector<CrsCell> value;  ///< stored bit (CRS '1' = 1)
    std::vector<CrsCell> mask;   ///< CRS '1' = bit participates in match
    bool valid = false;
  };

  [[nodiscard]] Row& at(std::size_t row);

  CamConfig config_;
  std::vector<Row> rows_;
  std::uint64_t searches_ = 0;
  Energy total_energy_{0.0};
};

}  // namespace memcim

#include "support/cell_grid_cam.h"

#include "common/error.h"

namespace memcim {

CellGridCam::CellGridCam(const CamConfig& config) : config_(config) {
  MEMCIM_CHECK_MSG(config_.rows > 0 && config_.word_bits > 0,
                   "CAM dimensions must be positive");
  MEMCIM_CHECK(config_.search_pulses >= 1);
  rows_.resize(config_.rows);
  for (Row& row : rows_) {
    row.value.assign(config_.word_bits, CrsCell(config_.cell));
    row.mask.assign(config_.word_bits, CrsCell(config_.cell));
  }
}

CellGridCam::Row& CellGridCam::at(std::size_t row) {
  MEMCIM_CHECK_MSG(row < rows_.size(), "CAM row out of range");
  return rows_[row];
}

void CellGridCam::write_row(std::size_t row, const std::vector<bool>& word) {
  std::vector<CamBit> ternary(word.size());
  for (std::size_t i = 0; i < word.size(); ++i)
    ternary[i] = word[i] ? CamBit::kOne : CamBit::kZero;
  write_row_ternary(row, ternary);
}

void CellGridCam::write_row_ternary(std::size_t row,
                                    const std::vector<CamBit>& word) {
  MEMCIM_CHECK_MSG(word.size() == config_.word_bits,
                   "CAM word width mismatch");
  Row& r = at(row);
  for (std::size_t i = 0; i < word.size(); ++i) {
    r.value[i].write(word[i] == CamBit::kOne);
    r.mask[i].write(word[i] != CamBit::kDontCare);
  }
  r.valid = true;
}

std::vector<CamBit> CellGridCam::read_row(std::size_t row) const {
  MEMCIM_CHECK(row < rows_.size());
  const Row& r = rows_[row];
  MEMCIM_CHECK_MSG(r.valid, "reading an erased CAM row");
  std::vector<CamBit> word(config_.word_bits);
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (r.mask[i].state() != CrsState::kOne)
      word[i] = CamBit::kDontCare;
    else
      word[i] = r.value[i].state() == CrsState::kOne ? CamBit::kOne
                                                     : CamBit::kZero;
  }
  return word;
}

CamSearchResult CellGridCam::search(const std::vector<bool>& key) {
  MEMCIM_CHECK_MSG(key.size() == config_.word_bits, "CAM key width mismatch");
  CamSearchResult result;
  ++searches_;
  result.latency =
      config_.cell.t_pulse * static_cast<double>(config_.search_pulses);
  // Each mismatching participating cell of a valid row discharges the
  // match line at the cell switching energy.
  for (std::size_t ri = 0; ri < rows_.size(); ++ri) {
    const Row& row = rows_[ri];
    if (!row.valid) continue;
    bool match = true;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (row.mask[i].state() != CrsState::kOne) continue;  // don't-care
      const bool stored = row.value[i].state() == CrsState::kOne;
      if (stored != key[i]) {
        match = false;
        result.energy += config_.cell.e_per_switch;
      }
    }
    if (match) result.matching_rows.push_back(ri);
  }
  total_energy_ += result.energy;
  return result;
}

std::optional<std::size_t> CellGridCam::search_first(
    const std::vector<bool>& key) {
  const CamSearchResult result = search(key);
  if (result.matching_rows.empty()) return std::nullopt;
  return result.matching_rows.front();
}

void CellGridCam::inject_stuck(std::size_t row, std::size_t bit,
                               bool stuck_one) {
  MEMCIM_CHECK_MSG(bit < config_.word_bits, "CAM bit out of range");
  at(row).value[bit].force_stuck(stuck_one ? CrsState::kOne
                                           : CrsState::kZero);
}

}  // namespace memcim

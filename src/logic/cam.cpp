#include "logic/cam.h"

#include <bit>

#include "common/error.h"
#include "logic/packed.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

struct PackedCamMetrics {
  telemetry::Counter& searches;
  telemetry::Counter& row_blocks;
  PackedCamMetrics()
      : searches(telemetry::Registry::global().counter(
            "logic.packed.cam_searches")),
        row_blocks(telemetry::Registry::global().counter(
            "logic.packed.cam_row_blocks")) {}
};

PackedCamMetrics& packed_cam_metrics() {
  static PackedCamMetrics m;
  return m;
}

}  // namespace

CrsCam::CrsCam(const CamConfig& config)
    : config_(config), energy_sums_(config.cell.e_per_switch.value()) {
  MEMCIM_CHECK_MSG(config_.rows > 0 && config_.word_bits > 0,
                   "CAM dimensions must be positive");
  MEMCIM_CHECK(config_.search_pulses >= 1);
  MEMCIM_CHECK_MSG(config_.word_bits <= kMaxCrsCells / config_.rows,
                   "a " << config_.rows << " x " << config_.word_bits
                        << " CAM has more than kMaxCrsCells cells");
  check_crs_cell_params(config_.cell);
  const std::size_t blocks = config_.rows / kPackedLanes +
                             (config_.rows % kPackedLanes != 0 ? 1 : 0);
  packed_value_.assign(blocks * config_.word_bits, 0);
  packed_care_.assign(blocks * config_.word_bits, 0);
  packed_stuck_.assign(blocks * config_.word_bits, 0);
  packed_valid_.assign(blocks, 0);
}

CrsCam::Slot CrsCam::slot(std::size_t row) const {
  MEMCIM_CHECK_MSG(row < config_.rows, "CAM row out of range");
  return {row / kPackedLanes, std::uint64_t{1} << (row % kPackedLanes)};
}

void CrsCam::write_row(std::size_t row, const std::vector<bool>& word) {
  std::vector<CamBit> ternary(word.size());
  for (std::size_t i = 0; i < word.size(); ++i)
    ternary[i] = word[i] ? CamBit::kOne : CamBit::kZero;
  write_row_ternary(row, ternary);
}

void CrsCam::write_row_ternary(std::size_t row,
                               const std::vector<CamBit>& word) {
  MEMCIM_CHECK_MSG(word.size() == config_.word_bits,
                   "CAM word width mismatch");
  const Slot s = slot(row);
  const std::size_t base = s.block * config_.word_bits;
  std::uint64_t transitions = 0;
  std::uint64_t absorbed = 0;
  for (std::size_t i = 0; i < word.size(); ++i) {
    std::uint64_t& value = packed_value_[base + i];
    std::uint64_t& care = packed_care_[base + i];
    if (((value & s.bit) != 0) != (word[i] == CamBit::kOne)) {
      if ((packed_stuck_[base + i] & s.bit) != 0) {
        ++absorbed;  // the pinned cell keeps its value
      } else {
        value ^= s.bit;
        ++transitions;
      }
    }
    if (((care & s.bit) != 0) != (word[i] != CamBit::kDontCare)) {
      care ^= s.bit;
      ++transitions;
    }
  }
  packed_valid_[s.block] |= s.bit;
  detail::book_crs_cell_events(config_.cell, 2 * std::uint64_t{word.size()},
                               transitions, absorbed);
}

void CrsCam::erase_row(std::size_t row) {
  const Slot s = slot(row);
  packed_valid_[s.block] &= ~s.bit;
}

std::vector<CamBit> CrsCam::read_row(std::size_t row) const {
  const Slot s = slot(row);
  MEMCIM_CHECK_MSG((packed_valid_[s.block] & s.bit) != 0,
                   "reading an erased CAM row");
  const std::size_t base = s.block * config_.word_bits;
  std::vector<CamBit> word(config_.word_bits);
  for (std::size_t i = 0; i < word.size(); ++i) {
    if ((packed_care_[base + i] & s.bit) == 0)
      word[i] = CamBit::kDontCare;
    else
      word[i] = (packed_value_[base + i] & s.bit) != 0 ? CamBit::kOne
                                                       : CamBit::kZero;
  }
  return word;
}

CamSearchResult CrsCam::search(const std::vector<bool>& key) {
  MEMCIM_CHECK_MSG(key.size() == config_.word_bits, "CAM key width mismatch");
  CamSearchResult result;
  ++searches_;

  // Match-line evaluation: all rows in parallel, so latency is the
  // fixed precharge+evaluate pulse sequence.
  result.latency =
      config_.cell.t_pulse * static_cast<double>(config_.search_pulses);

  // Evaluated 64 rows per word: a row mismatches at bit i iff it is
  // valid, bit i participates, and the stored bit differs from the key
  // bit.  Each mismatching cell discharges the match line, charged at
  // the cell switching energy (the dominant dynamic term in published
  // memristive CAM designs) into one accumulator, cell by cell, so the
  // exact double is the repeated-quantum prefix sum at the mismatch
  // count.
  const std::size_t blocks = packed_valid_.size();
  std::uint64_t mismatch_total = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t valid = packed_valid_[b];
    std::uint64_t any_mismatch = 0;
    if (valid != 0) {
      const std::uint64_t* value = packed_value_.data() + b * config_.word_bits;
      const std::uint64_t* care = packed_care_.data() + b * config_.word_bits;
      for (std::size_t i = 0; i < config_.word_bits; ++i) {
        const std::uint64_t diff = key[i] ? ~value[i] : value[i];
        const std::uint64_t mm = diff & care[i] & valid;
        mismatch_total += static_cast<std::uint64_t>(std::popcount(mm));
        any_mismatch |= mm;
      }
    }
    std::uint64_t match = valid & ~any_mismatch;
    while (match != 0) {
      const unsigned w = static_cast<unsigned>(std::countr_zero(match));
      result.matching_rows.push_back(b * kPackedLanes + w);
      match &= match - 1;
    }
  }
  result.energy = Energy(energy_sums_.sum(mismatch_total));
  if (telemetry::enabled()) {
    PackedCamMetrics& m = packed_cam_metrics();
    m.searches.add(1);
    m.row_blocks.add(blocks);
  }
  total_energy_ += result.energy;
  return result;
}

void CrsCam::inject_stuck(std::size_t row, std::size_t bit, bool stuck_one) {
  MEMCIM_CHECK_MSG(bit < config_.word_bits, "CAM bit out of range");
  const Slot s = slot(row);
  const std::size_t w = s.block * config_.word_bits + bit;
  packed_stuck_[w] |= s.bit;
  packed_value_[w] =
      stuck_one ? (packed_value_[w] | s.bit) : (packed_value_[w] & ~s.bit);
}

std::optional<std::size_t> CrsCam::search_first(const std::vector<bool>& key) {
  const CamSearchResult result = search(key);
  if (result.matching_rows.empty()) return std::nullopt;
  return result.matching_rows.front();
}

}  // namespace memcim

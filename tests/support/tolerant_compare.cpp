#include "support/tolerant_compare.h"

#include "common/error.h"

namespace memcim {

TolerantCompareResult parallel_compare_tolerant(
    CimTile& tile, const std::vector<bool>& key,
    std::size_t max_mismatched_bits) {
  const CimTileConfig& config = tile.config();
  MEMCIM_CHECK_MSG(key.size() == config.row_bits,
                   "key width must equal the row width");
  // Circuit model: every bit-pair runs its 13-step XOR on its own
  // column strip (bit-level parallelism, as the paper's comparator runs
  // its two XORs in parallel); the XOR outputs drive a CAM-style match
  // line whose discharge current is proportional to the mismatch count,
  // thresholded by the sense amp in one precharge+evaluate pair.
  constexpr std::size_t kXorSteps = 13;
  constexpr std::size_t kSensePulses = 2;

  TolerantCompareResult result;
  result.latency =
      config.cost.t_step * static_cast<double>(kXorSteps + kSensePulses);
  result.matches.resize(config.rows);
  for (std::size_t r = 0; r < config.rows; ++r) {
    const std::vector<bool> row = tile.load_row(r);
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < config.row_bits; ++b)
      if (row[b] != key[b]) ++mismatches;
    result.matches[r] = mismatches <= max_mismatched_bits;
    // 13 writes per bit for the XORs + one discharge quantum per
    // mismatching bit on the match line.
    result.energy +=
        config.cost.e_write *
        static_cast<double>(kXorSteps * config.row_bits + mismatches);
  }
  return result;
}

}  // namespace memcim

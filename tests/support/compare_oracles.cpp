#include "support/compare_oracles.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"
#include "isa/kernels.h"
#include "logic/comparator.h"
#include "logic/ideal_fabric.h"
#include "logic/packed.h"

namespace memcim {

namespace {

/// Transpose a 64 x 64 bit block in place — bit c of word w moves to bit
/// w of word c — by swapping ever smaller off-diagonal sub-blocks.
void transpose_bits64(std::array<std::uint64_t, kPackedLanes>& m) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < kPackedLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

}  // namespace

std::vector<bool> ScalarCompareOracle::compare(
    const std::vector<std::vector<bool>>& rows, const std::vector<bool>& key) {
  std::vector<bool> matches(rows.size());
  Time worst_row_latency{0.0};
  Energy total_energy{0.0};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    IdealFabric fabric(cost_);
    const std::vector<Reg> key_regs = load_word(fabric, key);
    const std::vector<Reg> row_regs = load_word(fabric, rows[r]);
    const Reg eq = word_equality(fabric, key_regs, row_regs);
    matches[r] = fabric.read(eq);
    worst_row_latency = std::max(worst_row_latency, fabric.latency());
    total_energy += fabric.energy();
  }
  latency += worst_row_latency;
  energy += total_energy;
  return matches;
}

ReplayCompareOracle::ReplayCompareOracle(const CimTileConfig& config)
    : config_(config), memory_(config.rows, config.row_bits, config.cell) {}

void ReplayCompareOracle::store_row(std::size_t row,
                                    const std::vector<bool>& bits) {
  memory_.write_word(row, bits);
}

std::vector<bool> ReplayCompareOracle::parallel_compare(
    const std::vector<bool>& key) {
  MEMCIM_CHECK(key.size() == config_.row_bits);
  if (!program_) {
    isa::CompileOptions copts;
    copts.cost = config_.cost;
    program_ = isa::cached_word_equality(config_.row_bits, copts);
  }

  // The bank, read row by row, as u64 row words: word k of a row holds
  // columns 64k .. 64k+63.
  const std::size_t bits = config_.row_bits;
  const std::size_t row_words = memory_.words_per_row();
  std::vector<std::uint64_t> plane(config_.rows * row_words, 0);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    const std::vector<bool> row = memory_.read_word(r);
    for (std::size_t c = 0; c < bits; ++c)
      if (row[c]) plane[r * row_words + c / 64] |= std::uint64_t{1} << (c % 64);
  }

  // The program's inputs are the key bits then the row bits.  Per
  // 64-row block, the key is broadcast to every lane, and each 64-column
  // slab of the block's row words is transposed into one lane word per
  // column.
  const std::size_t inputs = 2 * bits;
  lane_words_.resize(packed_lane_blocks(config_.rows) * inputs);
  std::array<std::uint64_t, kPackedLanes> slab;
  for (std::size_t base = 0; base < config_.rows; base += kPackedLanes) {
    std::uint64_t* in = lane_words_.data() + base / kPackedLanes * inputs;
    for (std::size_t i = 0; i < bits; ++i)
      in[i] = key[i] ? ~std::uint64_t{0} : 0;
    const std::size_t lanes = std::min(kPackedLanes, config_.rows - base);
    for (std::size_t k = 0; k < row_words; ++k) {
      for (std::size_t w = 0; w < lanes; ++w)
        slab[w] = plane[(base + w) * row_words + k];
      std::fill(slab.begin() + static_cast<std::ptrdiff_t>(lanes), slab.end(),
                0);
      transpose_bits64(slab);
      const std::size_t col = 64 * k;
      std::copy_n(slab.begin(), std::min<std::size_t>(64, bits - col),
                  in + bits + col);
    }
  }
  PackedRunResult result =
      run_program_packed(program_->packed_source, config_.rows, lane_words_,
                         program_->run_source);

  const std::uint64_t writes_per_row =
      result.writes / static_cast<std::uint64_t>(config_.rows);
  const Energy row_energy =
      config_.cost.e_write * static_cast<double>(writes_per_row);
  Time worst_row_latency{0.0};
  Energy total_energy{0.0};
  for (std::size_t r = 0; r < config_.rows; ++r) {
    worst_row_latency = std::max(worst_row_latency, result.latency);
    total_energy += row_energy;
  }
  stats_.latency += worst_row_latency;
  stats_.energy += total_energy;
  stats_.operations += config_.rows;
  return std::move(result.outputs);
}

}  // namespace memcim

#include "arch/cim_tile.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>

#include "common/error.h"
#include "isa/kernels.h"
#include "logic/packed.h"
#include "logic/packed_adder.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

struct TileMetrics {
  telemetry::Counter& compares;
  telemetry::Counter& adds;
  telemetry::Counter& rows;
  telemetry::Counter& lanes;
  TileMetrics()
      : compares(
            telemetry::Registry::global().counter("cim_tile.compare.ops")),
        adds(telemetry::Registry::global().counter("cim_tile.add.ops")),
        rows(telemetry::Registry::global().counter("cim_tile.compare.rows")),
        lanes(telemetry::Registry::global().counter("cim_tile.add.lanes")) {}
};

TileMetrics& tile_metrics() {
  static TileMetrics m;
  return m;
}

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

CimTile::CimTile(const CimTileConfig& config)
    : config_(config), memory_(config.rows, config.row_bits, config.cell) {
  MEMCIM_CHECK(config_.rows > 0 && config_.row_bits > 0);
}

void CimTile::store_row(std::size_t row, const std::vector<bool>& bits) {
  memory_.write_word(row, bits);
}

std::vector<bool> CimTile::load_row(std::size_t row) {
  return memory_.read_word(row);
}

std::vector<bool> CimTile::parallel_compare(const std::vector<bool>& key) {
  MEMCIM_CHECK_MSG(key.size() == config_.row_bits,
                   "key width must equal the row width");
  static telemetry::SpanSite span_site("cim_tile.parallel_compare");
  telemetry::Span span(span_site);
  tile_metrics().compares.add(1);
  tile_metrics().rows.add(config_.rows);

  // Compile-once/replay-many: every row is one packed window of the
  // word-equality program.  The program IS the recorded per-row fabric
  // walk (each row on its own IdealFabric slice, rows concurrent), so
  // replaying the source form reproduces that walk's books bitwise:
  // per-row steps/writes are identical, tile latency is the max over
  // equal row latencies, and the energy reproduces the walk's ordered
  // per-row fold (NOT one writes × e_write multiply, which rounds
  // differently).
  if (!compare_program_) {
    isa::CompileOptions copts;
    copts.cost = config_.cost;
    compare_program_ = isa::cached_word_equality(config_.row_bits, copts);
  }

  // The program's inputs are the key bits then the row bits.  Per
  // 64-row block, the key is broadcast to every lane, and each 64-column
  // slab of the block's stored row words (word k of a row holds columns
  // 64k .. 64k+63) is transposed into one lane word per column.
  const std::size_t bits = config_.row_bits;
  const std::size_t inputs = 2 * bits;
  const std::size_t row_words = memory_.words_per_row();
  lane_words_.resize(packed_lane_blocks(config_.rows) * inputs);
  const std::span<const std::uint64_t> plane = memory_.read_all();
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
      run_program_packed(compare_program_->packed_source, config_.rows,
                         lane_words_, compare_program_->run_source);

  const std::uint64_t writes_per_row =
      result.writes / static_cast<std::uint64_t>(config_.rows);
  const Time row_latency = result.latency;
  const Energy row_energy =
      config_.cost.e_write * static_cast<double>(writes_per_row);
  Time worst_row_latency{0.0};
  Energy total_energy{0.0};
  for (std::size_t r = 0; r < config_.rows; ++r) {
    worst_row_latency = std::max(worst_row_latency, row_latency);
    total_energy += row_energy;
  }
  stats_.latency += worst_row_latency;
  stats_.energy += total_energy;
  stats_.operations += config_.rows;
  return std::move(result.outputs);
}

std::vector<bool> CimTile::parallel_compare_tolerant(
    const std::vector<bool>& key, std::size_t max_mismatched_bits) {
  MEMCIM_CHECK_MSG(key.size() == config_.row_bits,
                   "key width must equal the row width");
  // Circuit model: every bit-pair runs its 13-step XOR on its own
  // column strip (bit-level parallelism, as the paper's comparator runs
  // its two XORs in parallel); the XOR outputs drive a CAM-style match
  // line whose discharge current is proportional to the mismatch count,
  // thresholded by the sense amp in one precharge+evaluate pair.
  static telemetry::SpanSite span_site("cim_tile.parallel_compare_tolerant");
  telemetry::Span span(span_site);
  tile_metrics().compares.add(1);
  tile_metrics().rows.add(config_.rows);
  constexpr std::size_t kXorSteps = 13;
  constexpr std::size_t kSensePulses = 2;
  const Time pass_latency =
      config_.cost.t_step * static_cast<double>(kXorSteps + kSensePulses);

  std::vector<bool> matches(config_.rows);
  Energy total_energy{0.0};
  for (std::size_t r = 0; r < config_.rows; ++r) {
    const std::vector<bool> row = memory_.read_word(r);
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < config_.row_bits; ++b)
      if (row[b] != key[b]) ++mismatches;
    matches[r] = mismatches <= max_mismatched_bits;
    // 13 writes per bit for the XORs + one discharge quantum per
    // mismatching bit on the match line.
    total_energy +=
        config_.cost.e_write *
        static_cast<double>(kXorSteps * config_.row_bits + mismatches);
  }
  stats_.latency += pass_latency;
  stats_.energy += total_energy;
  stats_.operations += config_.rows;
  return matches;
}

std::uint64_t CimTile::lane_value(const std::vector<bool>& bits,
                                  std::size_t lane,
                                  std::size_t lane_bits) const {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < lane_bits; ++i)
    if (bits[lane * lane_bits + i]) value |= (std::uint64_t{1} << i);
  return value;
}

void CimTile::parallel_add(std::size_t row_a, std::size_t row_b,
                           std::size_t row_dst, std::size_t lane_bits) {
  MEMCIM_CHECK_MSG(lane_bits >= 1 && lane_bits <= 64 &&
                       config_.row_bits % lane_bits == 0,
                   "row width must be a multiple of the lane width");
  static telemetry::SpanSite span_site("cim_tile.parallel_add");
  telemetry::Span span(span_site);
  const std::size_t lanes = config_.row_bits / lane_bits;
  tile_metrics().adds.add(1);
  tile_metrics().lanes.add(lanes);
  const std::vector<bool> a = memory_.read_word(row_a);
  const std::vector<bool> b = memory_.read_word(row_b);

  // One fresh adder per lane, all lanes in parallel.
  PackedTcAdderFarm farm(lanes, lane_bits, config_.cell);
  std::vector<std::uint64_t> a_lanes(lanes), b_lanes(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    a_lanes[lane] = lane_value(a, lane, lane_bits);
    b_lanes[lane] = lane_value(b, lane, lane_bits);
  }
  const PackedAddOutcome r = farm.run(a_lanes, b_lanes);

  std::vector<bool> dst(config_.row_bits, false);
  Energy total_energy{0.0};
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t i = 0; i < lane_bits; ++i)
      dst[lane * lane_bits + i] = (r.sums[lane] >> i) & 1u;
    total_energy += Energy(r.energies[lane]);
  }
  memory_.write_word(row_dst, dst);
  stats_.latency += farm.add_latency();
  stats_.energy += total_energy;
  stats_.operations += lanes;
}

}  // namespace memcim

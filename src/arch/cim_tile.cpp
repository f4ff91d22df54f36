#include "arch/cim_tile.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "common/error.h"
#include "isa/kernels.h"
#include "logic/packed.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

struct TileMetrics {
  telemetry::Counter& compares;
  telemetry::Counter& rows;
  TileMetrics()
      : compares(
            telemetry::Registry::global().counter("cim_tile.compare.ops")),
        rows(telemetry::Registry::global().counter("cim_tile.compare.rows")) {}
};

TileMetrics& tile_metrics() {
  static TileMetrics m;
  return m;
}

}  // namespace

CimTile::CimTile(const CimTileConfig& config)
    : config_(config),
      memory_(config.rows, config.row_bits, config.cell),
      key_words_(memory_.words_per_row()) {
  MEMCIM_CHECK(config_.rows > 0 && config_.row_bits > 0);
  check_logic_cost_model(config_.cost);
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

  // Compile once, replay never: every row is one window of the
  // word-equality program, recorded from the per-row fabric walk (each
  // row on its own IdealFabric slice, rows concurrent).  The matches come
  // from the row words, and the program's books in closed form from
  // book_program_packed, as a packed replay of every row would book
  // them: per-row steps/writes are the program's, tile latency is the
  // max over equal row latencies, and the energy reproduces the walk's
  // ordered per-row fold (NOT one writes × e_write multiply, which
  // rounds differently).
  if (!compare_program_) {
    isa::CompileOptions copts;
    copts.cost = config_.cost;
    auto program = isa::cached_word_equality(config_.row_bits, copts);
    compare_flips_ =
        bind_word_equality_flips(program->packed_source, config_.row_bits);
    compare_program_ = std::move(program);
  }

  std::fill(key_words_.begin(), key_words_.end(), 0);
  std::uint64_t key_ones = 0;
  for (std::size_t i = 0; i < config_.row_bits; ++i) {
    if (!key[i]) continue;
    key_words_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++key_ones;
  }
  const std::size_t row_words = key_words_.size();
  const std::span<const std::uint64_t> plane = memory_.read_all();
  std::vector<bool> matches(config_.rows);
  BitTally shared_ones;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    const std::uint64_t* row = plane.data() + r * row_words;
    std::uint64_t differ = 0;
    for (std::size_t k = 0; k < row_words; ++k) {
      differ |= row[k] ^ key_words_[k];
      shared_ones.add(row[k] & key_words_[k]);
    }
    matches[r] = differ == 0;
  }
  PackedRunResult result;
  result.transitions =
      compare_flips_.total(config_.row_bits, config_.rows, key_ones,
                           memory_.stored_ones(), shared_ones.total());
  book_program_packed(compare_program_->packed_source, config_.rows,
                      compare_program_->run_source.cost, result);

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
  return matches;
}

}  // namespace memcim

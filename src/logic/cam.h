// Memristive content-addressable memory — Section IV.C(b): "Moreover,
// CAMs based on memristors are feasible with different flavors [90,91];
// e.g., a CRS-based CAM is recently demonstrated [84]".
//
// Each row stores a word in CRS cells (plus a per-bit mask for the
// ternary flavour); a search broadcasts the key on the match lines and
// every row evaluates in parallel.  In hardware the match is a
// wired-AND of per-bit XNORs sensed on the row's match line in one
// cycle; we model that as: match-phase latency = one search pulse
// sequence regardless of the row count, energy = per-cell comparison
// energy summed over all cells that participate.
//
// The array is stored bit-sliced, the layout the match lines evaluate:
// for row block b (64 rows) and bit column i, one u64 per plane holds
// that column's bit of each row — the value plane (the value cell holds
// '1'), the care plane (the mask cell holds '1', so the bit
// participates), and the stuck plane (the value cell is pinned).  One
// valid word per block gates erased rows.  The CAM only ever writes its
// cells (a search senses the match lines, never a cell read pulse), so
// a cell rests in '0' or '1' and every full-amplitude write pulse
// switches a free cell outright.  A row write is therefore booked once
// in closed form, with exactly the crs_cell.* totals the behavioural
// cell model (src/device/crs.h) books pulse by pulse for one cell per
// value bit and one per mask bit:
//
//   2 · word_bits pulses (one per value cell, one per mask cell)
//   1 transition per free value cell and per mask cell that changes
//   1 stuck_absorbed per stuck value cell the word would change
//
// tests/logic/packed_cam_test.cpp holds the CAM to a grid of such cells.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/quantum_sum.h"
#include "device/crs.h"

namespace memcim {

/// One ternary bit of a stored CAM word.
enum class CamBit : std::uint8_t {
  kZero,
  kOne,
  kDontCare,  ///< matches either key bit (ternary CAM)
};

struct CamConfig {
  std::size_t rows = 64;
  std::size_t word_bits = 32;
  CrsCellParams cell{};
  /// Match-line evaluation: precharge + evaluate, two array pulses.
  std::size_t search_pulses = 2;
};

struct CamSearchResult {
  std::vector<std::size_t> matching_rows;
  Time latency{0.0};   ///< one parallel search (row-count independent)
  Energy energy{0.0};  ///< summed cell comparison energy of this search
};

class CrsCam {
 public:
  /// Throws Error, before allocating, unless both dimensions and
  /// search_pulses are positive, the cell count rows · word_bits is at
  /// most kMaxCrsCells, and the cell parameters pass
  /// check_crs_cell_params.
  explicit CrsCam(const CamConfig& config);

  [[nodiscard]] const CamConfig& config() const { return config_; }

  /// Program a row with a binary word (LSB first).
  void write_row(std::size_t row, const std::vector<bool>& word);
  /// Program a row with a ternary word (don't-cares allowed).
  void write_row_ternary(std::size_t row, const std::vector<CamBit>& word);
  /// Invalidate a row: it matches nothing until rewritten.  Its cells
  /// keep their states, so a rewrite books against them.
  void erase_row(std::size_t row);

  [[nodiscard]] std::vector<CamBit> read_row(std::size_t row) const;

  /// Parallel search: every valid row whose word matches `key` under
  /// the ternary rules.
  [[nodiscard]] CamSearchResult search(const std::vector<bool>& key);

  /// First matching row, if any (priority encoder behaviour).
  [[nodiscard]] std::optional<std::size_t> search_first(
      const std::vector<bool>& key);

  /// Fault injection: pin the value cell at (row, bit) stuck at logic
  /// `stuck_one`, with no pulse and no book, as force_stuck does to a
  /// device cell; later rewrites of the row cannot move it, so searches
  /// run against the corrupted stored word.
  void inject_stuck(std::size_t row, std::size_t bit, bool stuck_one);

  // -- lifetime statistics ---------------------------------------------------
  [[nodiscard]] std::uint64_t searches() const { return searches_; }
  [[nodiscard]] Energy total_energy() const { return total_energy_; }

 private:
  /// Where a row lives: its 64-row block, and its bit in each of that
  /// block's words.
  struct Slot {
    std::size_t block;
    std::uint64_t bit;
  };
  [[nodiscard]] Slot slot(std::size_t row) const;

  CamConfig config_;
  std::uint64_t searches_ = 0;
  Energy total_energy_{0.0};
  // Word [b * word_bits + i] holds bit column i of row block b.
  std::vector<std::uint64_t> packed_value_;
  std::vector<std::uint64_t> packed_care_;
  std::vector<std::uint64_t> packed_stuck_;
  std::vector<std::uint64_t> packed_valid_;  ///< one word per row block
  /// Exact replay of the per-mismatch energy accumulation.
  QuantumSumTable energy_sums_;
};

}  // namespace memcim

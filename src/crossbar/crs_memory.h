// A CRS-based crossbar memory bank with the full read/write protocol of
// Section IV.B: destructive reads of '0' followed by automatic
// write-back, per-transaction pulse and energy accounting.
//
// This is the behavioural (threshold state machine) model — sneak paths
// are structurally absent in a CRS array, which is exactly the paper's
// argument for using CRS junctions, so no network solve is needed for
// functional operation.
//
// The bank is bit-sliced: each row is stored as u64 words in two planes,
// a value plane (bit set ⇔ the cell holds '1') and a stuck plane (bit
// set ⇔ the cell is pinned to its value).  Writes drive a cell to '0' or
// '1' and every destructive read is written back, so those two states
// are the only ones a cell can rest in, and every transaction is booked
// in closed form — exactly what a CrsCell (src/device/crs.h) walking the
// same pulses would count:
//
//   read of a '1'            1 pulse
//   read of a free '0'       2 pulses (read + write-back), 2 transitions,
//                            one destructive read
//   read of a stuck '0'      1 pulse, the ON transition absorbed
//   write                    1 pulse, plus 1 transition when a free
//                            cell's value changes (absorbed when stuck)
//
// Bit and row reads book per word.  A whole-bank read (read_all) books
// from the bank's counts of free and stuck '0' cells, which writes and
// fault injections keep exact, and folds its per-cell transitions
// lazily: the bank counts whole-bank reads, each row remembers that
// count at its last fold, and a row's free '0' cells take their 2 per
// read just before a write or fault injection changes the row.
// transitions() and total_energy() add the reads not yet folded.
//
// tests/crossbar/crs_memory_oracle_test.cpp holds the bank to a grid of
// CrsCells driven through the same operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/crs.h"

namespace memcim {

class CrsMemory {
 public:
  /// Throws Error, before allocating, unless both dimensions are
  /// positive, rows · cols is at most kMaxCrsCells and the cell
  /// parameters pass check_crs_cell_params.
  CrsMemory(std::size_t rows, std::size_t cols,
            const CrsCellParams& cell_params);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Write one bit (one full-amplitude pulse).
  void write(std::size_t r, std::size_t c, bool bit);

  /// Read one bit with write-back; counts the extra restore pulse when
  /// the read was destructive.
  [[nodiscard]] bool read(std::size_t r, std::size_t c);

  /// Row-granular word access.
  void write_word(std::size_t r, const std::vector<bool>& bits);
  [[nodiscard]] std::vector<bool> read_word(std::size_t r);

  /// Read every cell of the bank, row by row, as one transaction: reads,
  /// destructive reads, pulses and per-cell transitions grow exactly as
  /// for a read_word of each row, and crs_cell.* is booked once, in
  /// O(1): the per-cell transitions fold lazily (see above).  Returns
  /// the value plane: word k of row r is element r * words_per_row() + k,
  /// bit c % 64 of word c / 64 is column c, padding bits are 0.  The view
  /// aliases the bank: later writes and fault injections show through it.
  [[nodiscard]] std::span<const std::uint64_t> read_all();
  /// u64 words per row of the plane read_all returns.
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  /// Fault injection (src/fault/): pin cell (r, c) to '1' or '0'.  Later
  /// pulses are still issued and counted but absorbed without a state
  /// change, like CrsCell::force_stuck.
  void inject_stuck(std::size_t r, std::size_t c, bool stuck_one);

  // -- per-cell inspection (no pulse issued) ----------------------------------
  /// The value cell (r, c) currently holds.
  [[nodiscard]] bool stored(std::size_t r, std::size_t c) const;
  /// State transitions cell (r, c) has made (endurance proxy).
  [[nodiscard]] std::uint64_t transitions(std::size_t r, std::size_t c) const;
  /// Cells that hold '1', stuck ones included.
  [[nodiscard]] std::uint64_t stored_ones() const {
    return static_cast<std::uint64_t>(rows_) * cols_ - free_zeros_ -
           stuck_zeros_;
  }

  // -- transaction statistics -----------------------------------------------
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t destructive_reads() const {
    return destructive_reads_;
  }
  /// Total pulses across all cells (reads, write-backs and writes).
  [[nodiscard]] std::uint64_t total_pulses() const { return pulses_; }
  /// Total switching energy across all cells: each cell's transitions
  /// accrue e_per_switch one by one, and the cells fold in row-major
  /// order, so the sum equals Σ CrsCell::energy() bit for bit.
  [[nodiscard]] Energy total_energy() const;
  /// Wall-clock time of all pulses issued so far (pulses are serialized
  /// per bank in this model).
  [[nodiscard]] Time total_time() const;

 private:
  /// crs_cell.* events of one transaction, booked once at its end.
  struct CellEvents {
    std::uint64_t pulses = 0;
    std::uint64_t transitions = 0;
    std::uint64_t absorbed = 0;
  };
  /// Read the `n` cells of `mask` in word k of row r (write-back
  /// included).
  void read_cells(std::size_t r, std::size_t k, std::uint64_t mask,
                  std::uint64_t n, CellEvents& events);
  /// Drive the cells of `mask` in word k of row r to the matching bits.
  void write_cells(std::size_t r, std::size_t k, std::uint64_t mask,
                   std::uint64_t bits, CellEvents& events);
  /// Fold the whole-bank reads since row r's last fold into the per-cell
  /// transitions of its free '0' cells.
  void fold_reads(std::size_t r);
  void book(const CellEvents& events) const;
  /// Mask of the columns held by word k of a row.
  [[nodiscard]] std::uint64_t column_mask(std::size_t k) const;

  std::size_t rows_, cols_;
  std::size_t words_per_row_;
  CrsCellParams params_;
  std::vector<std::uint64_t> value_;         ///< [row][word], '1' bits
  std::vector<std::uint64_t> stuck_;         ///< [row][word], pinned bits
  std::vector<std::uint64_t> transitions_;   ///< [row][col], folded reads
  std::vector<std::uint64_t> folded_reads_;  ///< [row], bank_reads_ at fold
  std::uint64_t bank_reads_ = 0;             ///< read_all calls
  std::uint64_t free_zeros_ = 0;             ///< free cells holding '0'
  std::uint64_t stuck_zeros_ = 0;            ///< cells stuck at '0'
  std::uint64_t pulses_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t destructive_reads_ = 0;
};

}  // namespace memcim

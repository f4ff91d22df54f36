#include "crossbar/crs_memory.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/quantum_sum.h"

namespace memcim {

namespace {

constexpr std::size_t kWordBits = 64;

std::uint64_t popcount(std::uint64_t x) {
  return static_cast<std::uint64_t>(std::popcount(x));
}

/// Add `step` to the per-cell book of every cell `mask` selects and
/// return how many cells that was.
std::uint64_t add_per_cell(std::uint64_t* cells, std::uint64_t mask,
                           std::uint64_t step) {
  std::uint64_t n = 0;
  for (; mask != 0; mask &= mask - 1, ++n)
    cells[std::countr_zero(mask)] += step;
  return n;
}

}  // namespace

CrsMemory::CrsMemory(std::size_t rows, std::size_t cols,
                     const CrsCellParams& cell_params)
    : rows_(rows),
      cols_(cols),
      words_per_row_(cols / kWordBits + (cols % kWordBits != 0 ? 1 : 0)),
      params_(cell_params) {
  MEMCIM_CHECK_MSG(rows > 0 && cols > 0, "memory dimensions must be positive");
  MEMCIM_CHECK_MSG(cols <= kMaxCrsCells / rows,
                   "a " << rows << " x " << cols
                        << " memory has more than kMaxCrsCells cells");
  check_crs_cell_params(params_);
  value_.assign(rows * words_per_row_, 0);
  stuck_.assign(rows * words_per_row_, 0);
  transitions_.assign(rows * cols, 0);
  folded_reads_.assign(rows, 0);
  free_zeros_ = static_cast<std::uint64_t>(rows) * cols;
}

std::uint64_t CrsMemory::column_mask(std::size_t k) const {
  const std::size_t held = cols_ - k * kWordBits;
  return held >= kWordBits ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << held) - 1;
}

void CrsMemory::read_cells(std::size_t r, std::size_t k, std::uint64_t mask,
                           std::uint64_t n, CellEvents& events) {
  const std::size_t w = r * words_per_row_ + k;
  const std::uint64_t zeros = mask & ~value_[w];
  // A free '0' switches to ON (the spike) and is written back; a stuck
  // '0' absorbs the read pulse; a '1' stays quiet.
  const std::uint64_t d = add_per_cell(
      &transitions_[r * cols_ + k * kWordBits], zeros & ~stuck_[w], 2);
  reads_ += n;
  destructive_reads_ += d;
  pulses_ += n + d;
  events.pulses += n + d;
  events.transitions += 2 * d;
  if (const std::uint64_t absorbed = zeros & stuck_[w]; absorbed != 0)
    events.absorbed += popcount(absorbed);
}

void CrsMemory::write_cells(std::size_t r, std::size_t k, std::uint64_t mask,
                            std::uint64_t bits, CellEvents& events) {
  fold_reads(r);
  const std::size_t w = r * words_per_row_ + k;
  const std::uint64_t changed = mask & (value_[w] ^ bits);
  const std::uint64_t switched = changed & ~stuck_[w];
  // A switched '1' becomes a free '0', a switched '0' a '1'.
  free_zeros_ = free_zeros_ + popcount(switched & value_[w]) -
                popcount(switched & ~value_[w]);
  value_[w] ^= switched;
  const std::uint64_t n = popcount(mask);
  writes_ += n;
  pulses_ += n;
  events.pulses += n;
  events.transitions +=
      add_per_cell(&transitions_[r * cols_ + k * kWordBits], switched, 1);
  events.absorbed += popcount(changed & stuck_[w]);
}

void CrsMemory::fold_reads(std::size_t r) {
  const std::uint64_t n = bank_reads_ - folded_reads_[r];
  if (n == 0) return;
  folded_reads_[r] = bank_reads_;
  for (std::size_t k = 0; k < words_per_row_; ++k) {
    const std::size_t w = r * words_per_row_ + k;
    (void)add_per_cell(&transitions_[r * cols_ + k * kWordBits],
                       column_mask(k) & ~value_[w] & ~stuck_[w], 2 * n);
  }
}

void CrsMemory::book(const CellEvents& events) const {
  detail::book_crs_cell_events(params_, events.pulses, events.transitions,
                               events.absorbed);
}

void CrsMemory::write(std::size_t r, std::size_t c, bool bit) {
  MEMCIM_CHECK(r < rows_ && c < cols_);
  const std::uint64_t mask = std::uint64_t{1} << (c % kWordBits);
  CellEvents events;
  write_cells(r, c / kWordBits, mask, bit ? mask : 0, events);
  book(events);
}

bool CrsMemory::read(std::size_t r, std::size_t c) {
  MEMCIM_CHECK(r < rows_ && c < cols_);
  const std::uint64_t mask = std::uint64_t{1} << (c % kWordBits);
  CellEvents events;
  read_cells(r, c / kWordBits, mask, 1, events);
  book(events);
  return stored(r, c);
}

void CrsMemory::write_word(std::size_t r, const std::vector<bool>& bits) {
  MEMCIM_CHECK_MSG(bits.size() == cols_, "word width mismatch");
  MEMCIM_CHECK(r < rows_);
  CellEvents events;
  for (std::size_t k = 0; k < words_per_row_; ++k) {
    const std::size_t base = k * kWordBits;
    const std::size_t held = std::min(kWordBits, cols_ - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < held; ++b)
      if (bits[base + b]) word |= std::uint64_t{1} << b;
    write_cells(r, k, column_mask(k), word, events);
  }
  book(events);
}

std::span<const std::uint64_t> CrsMemory::read_all() {
  // Every cell reads once, as in read_cells; the free '0' cells' per-cell
  // transitions wait in bank_reads_ until fold_reads.
  const std::uint64_t cells = static_cast<std::uint64_t>(rows_) * cols_;
  ++bank_reads_;
  reads_ += cells;
  destructive_reads_ += free_zeros_;
  pulses_ += cells + free_zeros_;
  book({.pulses = cells + free_zeros_,
        .transitions = 2 * free_zeros_,
        .absorbed = stuck_zeros_});
  return value_;
}

std::vector<bool> CrsMemory::read_word(std::size_t r) {
  MEMCIM_CHECK(r < rows_);
  CellEvents events;
  for (std::size_t k = 0; k < words_per_row_; ++k)
    read_cells(r, k, column_mask(k),
               std::min(kWordBits, cols_ - k * kWordBits), events);
  book(events);
  const std::uint64_t* words = value_.data() + r * words_per_row_;
  std::vector<bool> bits(cols_);
  for (std::size_t c = 0; c < cols_; ++c)
    bits[c] = ((words[c / kWordBits] >> (c % kWordBits)) & 1u) != 0;
  return bits;
}

void CrsMemory::inject_stuck(std::size_t r, std::size_t c, bool stuck_one) {
  MEMCIM_CHECK(r < rows_ && c < cols_);
  fold_reads(r);
  const std::size_t w = r * words_per_row_ + c / kWordBits;
  const std::uint64_t mask = std::uint64_t{1} << (c % kWordBits);
  if ((value_[w] & mask) == 0)
    --((stuck_[w] & mask) != 0 ? stuck_zeros_ : free_zeros_);
  if (!stuck_one) ++stuck_zeros_;
  stuck_[w] |= mask;
  value_[w] = stuck_one ? (value_[w] | mask) : (value_[w] & ~mask);
}

bool CrsMemory::stored(std::size_t r, std::size_t c) const {
  MEMCIM_CHECK(r < rows_ && c < cols_);
  return ((value_[r * words_per_row_ + c / kWordBits] >> (c % kWordBits)) &
          1u) != 0;
}

std::uint64_t CrsMemory::transitions(std::size_t r, std::size_t c) const {
  MEMCIM_CHECK(r < rows_ && c < cols_);
  const std::size_t w = r * words_per_row_ + c / kWordBits;
  const std::uint64_t mask = std::uint64_t{1} << (c % kWordBits);
  const bool free_zero = ((value_[w] | stuck_[w]) & mask) == 0;
  return transitions_[r * cols_ + c] +
         (free_zero ? 2 * (bank_reads_ - folded_reads_[r]) : 0);
}

Energy CrsMemory::total_energy() const {
  QuantumSumTable per_cell(params_.e_per_switch.value());
  Energy total{0.0};
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      total += Energy(per_cell.sum(transitions(r, c)));
  return total;
}

Time CrsMemory::total_time() const {
  return params_.t_pulse * static_cast<double>(pulses_);
}

}  // namespace memcim

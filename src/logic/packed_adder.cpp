#include "logic/packed_adder.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.h"
#include "common/parallel.h"
#include "logic/packed.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

struct PackedAdderMetrics {
  telemetry::Counter& ops;
  telemetry::Counter& lane_blocks;
  PackedAdderMetrics()
      : ops(telemetry::Registry::global().counter("logic.packed.adder_ops")),
        lane_blocks(telemetry::Registry::global().counter(
            "logic.packed.adder_lane_blocks")) {}
};

PackedAdderMetrics& packed_adder_metrics() {
  static PackedAdderMetrics m;
  return m;
}

/// Population count, inline: the build targets baseline x86-64, where
/// std::popcount is a call into libgcc (__popcountdi2) per word.
std::uint64_t popcount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
  return (x * 0x0101010101010101u) >> 56;
}

/// Byte j of kSpread[v] is bit j of v.  Spread, an op's old and new
/// sum bytes add up to the transition increments (0, 1 or 2) of eight
/// sum cells, one per byte.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> t{};
  for (std::size_t v = 0; v < 256; ++v)
    for (std::size_t j = 0; j < 8; ++j)
      t[v] |= static_cast<std::uint64_t>((v >> j) & 1u) << (8 * j);
  return t;
}();

/// The most one add raises a cell's transition count.  A sum cell moves
/// at most twice (init to '0', parity SET).  The carry cell moves
/// stale + 2S + 2 − 3·c_out times, with S ≤ N − 1 carries without a
/// carry-out and S ≤ N with one: at most 2N + 1.
std::uint64_t max_count_step(std::size_t width) { return 2 * width + 1; }

/// Books of one lane block, reduced in block order after the fan-out.
struct BlockBooks {
  std::uint64_t transitions = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t max_count = 0;  ///< largest count a cell of it holds
};

/// The fault-free path below width 64, over the farm's state as raw
/// pointers: a lane block's fault-free slots run row by row, two side
/// by side.  Each slot's energy is its own dependent chain of width + 1
/// additions, so the pair's chains interleave.
struct RowFold {
  const std::uint64_t* a;
  const std::uint64_t* b;
  std::uint64_t* sums;
  double* energies;
  std::uint64_t* stored_sum;
  std::uint8_t* carry_state;
  std::uint64_t* cum_carry;
  std::uint64_t* cum_sum;
  double* e_prev;
  const double* table;
  std::size_t width;  ///< below 64
  std::uint64_t sum_mask;
  std::size_t slots;
  std::size_t n_ops;

  /// Fold the ops of `count` fault-free slots of one lane block, listed
  /// in ascending order in `free`: op rows outer, slots inner, so
  /// operands, sums and energies stream.  Returns their transitions.
  std::uint64_t rows(const std::size_t* free, std::size_t count) const {
    std::uint64_t transitions = 0;
    for (std::size_t base = 0; base < n_ops; base += slots) {
      // Slot s has an op in this row while base + s < n_ops: all of
      // them but in the last row.
      const std::size_t live =
          n_ops - base >= slots
              ? count
              : static_cast<std::size_t>(
                    std::lower_bound(free, free + count, n_ops - base) -
                    free);
      std::size_t k = 0;
      for (; k + 2 <= live; k += 2) transitions += fold<2>(base, free + k);
      if (k < live) transitions += fold<1>(base, free + k);
    }
    return transitions;
  }

  /// Fold the ops base + slot[l], l < L.  Returns their transitions.
  template <std::size_t L>
  std::uint64_t fold(std::size_t base, const std::size_t* slot) const {
    // Locals, not members: the count stores below may not alias them,
    // so nothing is reloaded per cell.
    const std::size_t w = width;
    const std::uint64_t mask = sum_mask;
    const double* const energy_at = table;
    std::uint64_t sum_new[L];
    std::uint64_t old_sum[L];
    std::uint64_t c_out[L];
    std::uint64_t* cum[L];
    double e[L];
    std::uint64_t transitions = 0;
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t s = slot[l];
      const std::uint64_t av = a[base + s];
      const std::uint64_t bv = b[base + s];
      const std::uint64_t full = av + bv;
      sum_new[l] = full & mask;
      c_out[l] = (full >> w) & 1u;
      // stale + c_in + 2S + 2 − 3·c_out with c_in = 0, S the carries
      // into bits 1..N (bit 0 of the XOR is 0); c_out = 1 implies
      // S >= 1, so the subtraction cannot underflow.
      const std::uint64_t t_carry =
          carry_state[s] + 2 * popcount(full ^ av ^ bv) + 2 - 3 * c_out[l];
      transitions += t_carry;
      old_sum[l] = stored_sum[s];
      cum_carry[s] += t_carry;
      // The walk's energy fold over the slot's cells: (carry +
      // scratch) then each sum cell in index order; the scratch cell
      // never transitions, so its term is +0.0 and drops out
      // bit-exactly.
      e[l] = energy_at[cum_carry[s]];
      cum[l] = cum_sum + s * w;
    }
    // Each sum cell's transitions this op, one byte per cell: init to
    // '0' moves it when it held a 1, the parity SET when it latches one.
    alignas(8) std::uint8_t inc[L][64];
    for (std::size_t i = 0; i < w; i += 8)
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint64_t bytes = kSpread[(old_sum[l] >> i) & 0xFFu] +
                                    kSpread[(sum_new[l] >> i) & 0xFFu];
        // Their byte sum: popcount(old) + popcount(new) over the eight.
        transitions += (bytes * 0x0101010101010101u) >> 56;
        std::memcpy(&inc[l][i], &bytes, sizeof bytes);
      }
    for (std::size_t c = 0; c < w; ++c)
#pragma GCC unroll 2
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint64_t n = cum[l][c] + inc[l][c];
        cum[l][c] = n;
        e[l] += energy_at[n];
      }
#pragma GCC unroll 2
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t s = slot[l];
      sums[base + s] = sum_new[l];
      energies[base + s] = e[l] - e_prev[s];
      e_prev[s] = e[l];
      stored_sum[s] = sum_new[l];
      carry_state[s] = static_cast<std::uint8_t>(c_out[l]);
    }
    return transitions;
  }
};

}  // namespace

PackedTcAdderFarm::PackedTcAdderFarm(std::size_t slots, std::size_t width,
                                     const CrsCellParams& cell)
    : slots_(slots),
      width_(width),
      cell_(cell),
      energy_sums_(cell.e_per_switch.value()) {
  MEMCIM_CHECK_MSG(slots >= 1, "farm needs at least one slot");
  MEMCIM_CHECK_MSG(width >= 1 && width <= 64, "adder width must be 1..64");
  MEMCIM_CHECK_MSG(devices(width) <= kMaxCrsCells / slots,
                   "a farm of " << slots << " " << width
                                << "-bit adders has more than kMaxCrsCells "
                                   "cells");
  check_crs_cell_params(cell);
  sum_mask_ = width == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width) - 1;
  // The walk's own pulse expressions: a one-input majority pulse and a
  // parity-0 pulse are −V_amp, a no-input majority pulse −3·V_amp.
  const double v_amp = cell.v_th2.value() * 1.1;
  weak_negative_absorbed_ =
      (1.0 - 1.5) * 2.0 * v_amp <= cell.v_th3.value();
  strong_negative_absorbed_ =
      (0.0 - 1.5) * 2.0 * v_amp <= cell.v_th3.value();
  stored_sum_.assign(slots, 0);
  carry_state_.assign(slots, 0);
  cum_carry_.assign(slots, 0);
  cum_sum_.assign(slots * width, 0);
  e_prev_.assign(slots, 0.0);
}

Time PackedTcAdderFarm::add_latency() const {
  return cell_.t_pulse * static_cast<double>(steps(width_));
}

std::uint64_t PackedTcAdderFarm::stored_sum(std::size_t slot) const {
  MEMCIM_CHECK(slot < slots_);
  return stored_sum_[slot];
}

bool PackedTcAdderFarm::carry_out(std::size_t slot) const {
  MEMCIM_CHECK(slot < slots_);
  return carry_state_[slot] != 0;
}

void PackedTcAdderFarm::inject_stuck(std::size_t site, bool stuck_one) {
  MEMCIM_CHECK_MSG(site < fault_sites(), "fault site out of range");
  const std::size_t slot = site / devices(width_);
  const std::size_t cell = site % devices(width_);
  auto it = std::lower_bound(
      stuck_.begin(), stuck_.end(), slot,
      [](const StuckSlot& st, std::size_t s) { return st.slot < s; });
  if (it == stuck_.end() || it->slot != slot)
    it = stuck_.insert(it, StuckSlot{.slot = slot});
  StuckSlot& st = *it;
  if (cell < width_) {
    const std::uint64_t bit = std::uint64_t{1} << cell;
    const std::uint64_t pinned = stuck_one ? bit : 0;
    st.sum_stuck |= bit;
    st.sum_ones = (st.sum_ones & ~bit) | pinned;
    stored_sum_[slot] = (stored_sum_[slot] & ~bit) | pinned;
  } else if (cell == width_) {
    st.carry_stuck = true;
    st.carry_one = stuck_one;
  } else {
    st.scratch_one = stuck_one;
  }
}

std::uint64_t PackedTcAdderFarm::run_slot(
    std::size_t s, const StuckSlot& stuck, const std::vector<std::uint64_t>& a,
    const std::vector<std::uint64_t>& b, const double* table,
    PackedAddOutcome& out, std::uint64_t& absorbed) {
  const std::size_t n_ops = a.size();
  const std::uint64_t free_sum = sum_mask_ & ~stuck.sum_stuck;
  const std::uint64_t stuck_zeros = stuck.sum_stuck & ~stuck.sum_ones;
  const std::uint64_t weak = weak_negative_absorbed_ ? 1 : 0;
  const std::uint64_t strong = strong_negative_absorbed_ ? 1 : 0;
  // Pulses the stuck cells absorb whatever the operands: each sum cell
  // stuck at 1 its init, a scratch stuck at 1 both its writes.
  const std::uint64_t fixed_absorbed =
      popcount(stuck.sum_ones) + (stuck.scratch_one ? 2 : 0);
  std::uint64_t* cum_sum = cum_sum_.data() + s * width_;
  std::uint64_t transitions = 0;
  for (std::size_t op = s; op < n_ops; op += slots_) {
    const std::uint64_t av = a[op];
    const std::uint64_t bv = b[op];
    std::uint64_t latched = 0;  // what the free sum cells latch
    std::uint64_t c_out = 0;
    std::uint64_t t_carry = 0;
    if (stuck.carry_stuck) {
      latched = av | bv;
      absorbed += stuck.carry_one
                      ? width_ + 1 + weak * popcount(av ^ bv) +
                            strong * popcount(~(av | bv) & sum_mask_)
                      : popcount(av & bv) + 1;
    } else {
      const std::uint64_t full = av + bv;
      latched = full & sum_mask_;
      // At width 64 the sum wraps; the wrap is the carry-out, and the
      // XOR below cannot see it.
      c_out = width_ == 64 ? std::uint64_t{full < av} : (full >> width_) & 1u;
      const std::uint64_t carries =
          popcount(full ^ av ^ bv) + (width_ == 64 ? c_out : 0);
      t_carry = carry_state_[s] + 2 * carries + 2 - 3 * c_out;
    }
    absorbed += fixed_absorbed + weak * popcount(stuck.sum_ones & ~latched) +
                popcount(stuck_zeros & latched);
    const std::uint64_t old_free = stored_sum_[s] & free_sum;
    const std::uint64_t new_free = latched & free_sum;
    transitions += t_carry + popcount(old_free) + popcount(new_free);
    cum_carry_[s] += t_carry;
    double e = table[cum_carry_[s]];
    for (std::size_t i = 0; i < width_; ++i) {
      cum_sum[i] += ((old_free >> i) & 1u) + ((new_free >> i) & 1u);
      e += table[cum_sum[i]];
    }
    const std::uint64_t sum_new = new_free | stuck.sum_ones;
    out.sums[op] = sum_new;
    out.energies[op] = e - e_prev_[s];
    e_prev_[s] = e;
    stored_sum_[s] = sum_new;
    carry_state_[s] = static_cast<std::uint8_t>(c_out);
  }
  return transitions;
}

PackedAddOutcome PackedTcAdderFarm::run(const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  MEMCIM_CHECK_MSG(a.size() == b.size(), "operand vectors must pair up");
  const std::size_t n_ops = a.size();
  std::uint64_t wide = 0;
  for (std::size_t op = 0; op < n_ops; ++op) wide |= a[op] | b[op];
  MEMCIM_CHECK_MSG((wide & ~sum_mask_) == 0,
                   "operands exceed the " << width_ << "-bit adder width");
  PackedAddOutcome out;
  out.sums.assign(n_ops, 0);
  out.energies.assign(n_ops, 0.0);

  // Grow the energy table, before the fan-out, through the largest
  // count this run can reach: what a cell holds now plus, for each of
  // its slot's ops, the most one add can raise it.
  const std::size_t rows = (n_ops + slots_ - 1) / slots_;
  energy_sums_.grow_to(max_count_ + rows * max_count_step(width_));
  const double* const table = energy_sums_.data();
  const RowFold fault_free{.a = a.data(),
                           .b = b.data(),
                           .sums = out.sums.data(),
                           .energies = out.energies.data(),
                           .stored_sum = stored_sum_.data(),
                           .carry_state = carry_state_.data(),
                           .cum_carry = cum_carry_.data(),
                           .cum_sum = cum_sum_.data(),
                           .e_prev = e_prev_.data(),
                           .table = table,
                           .width = width_,
                           .sum_mask = sum_mask_,
                           .slots = slots_,
                           .n_ops = n_ops};

  const std::size_t blocks = packed_lane_blocks(slots_);
  std::vector<BlockBooks> block_books(blocks);
  parallel_for_chunks(0, blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t slot_begin = blk * kPackedLanes;
      const std::size_t slot_end =
          std::min(slot_begin + kPackedLanes, slots_);
      auto next_stuck = std::lower_bound(
          stuck_.cbegin(), stuck_.cend(), slot_begin,
          [](const StuckSlot& st, std::size_t s) { return st.slot < s; });
      BlockBooks books;
      std::array<std::size_t, kPackedLanes> free{};
      std::size_t n_free = 0;
      for (std::size_t s = slot_begin; s < slot_end; ++s) {
        if (next_stuck != stuck_.cend() && next_stuck->slot == s) {
          books.transitions +=
              run_slot(s, *next_stuck, a, b, table, out, books.absorbed);
          ++next_stuck;
        } else if (width_ == 64) {
          books.transitions +=
              run_slot(s, StuckSlot{}, a, b, table, out, books.absorbed);
        } else {
          free[n_free++] = s;
        }
      }
      books.transitions += fault_free.rows(free.data(), n_free);
      // Counts only grow, so the counts the block holds now are the
      // largest it read.
      for (std::size_t s = slot_begin; s < slot_end; ++s)
        books.max_count = std::max(books.max_count, cum_carry_[s]);
      for (std::size_t i = slot_begin * width_; i < slot_end * width_; ++i)
        books.max_count = std::max(books.max_count, cum_sum_[i]);
      block_books[blk] = books;
    }
  });

  // Exact u64 totals — order-free, but reduce in block order anyway.
  std::uint64_t absorbed = 0;
  for (const BlockBooks& books : block_books) {
    out.transitions += books.transitions;
    absorbed += books.absorbed;
    max_count_ = std::max(max_count_, books.max_count);
  }
  MEMCIM_CHECK_MSG(max_count_ < energy_sums_.size(),
                   "a cell's transition count " << max_count_
                       << " lay past the adder's energy table ("
                       << energy_sums_.size() << " entries)");

  detail::book_crs_cell_events(cell_, n_ops * steps(width_), out.transitions,
                               absorbed);
  if (telemetry::enabled()) {
    PackedAdderMetrics& m = packed_adder_metrics();
    m.ops.add(n_ops);
    m.lane_blocks.add(blocks);
  }
  return out;
}

}  // namespace memcim

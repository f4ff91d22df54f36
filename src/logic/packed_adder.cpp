#include "logic/packed_adder.h"

#include <algorithm>
#include <bit>

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

std::uint64_t popcount(std::uint64_t x) {
  return static_cast<std::uint64_t>(std::popcount(x));
}

/// Books of one lane block, reduced in block order after the fan-out.
struct BlockBooks {
  std::uint64_t transitions = 0;
  std::uint64_t absorbed = 0;
};

}  // namespace

PackedTcAdderFarm::PackedTcAdderFarm(std::size_t slots, std::size_t width,
                                     const CrsCellParams& cell)
    : slots_(slots), width_(width), cell_(cell) {
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
  block_sums_.reserve(packed_lane_blocks(slots));
  for (std::size_t blk = 0; blk < packed_lane_blocks(slots); ++blk)
    block_sums_.emplace_back(cell.e_per_switch.value());
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
    const std::vector<std::uint64_t>& b, QuantumSumTable& table,
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
    double e = table.sum(cum_carry_[s]);
    for (std::size_t i = 0; i < width_; ++i) {
      cum_sum[i] += ((old_free >> i) & 1u) + ((new_free >> i) & 1u);
      e += table.sum(cum_sum[i]);
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

  const std::size_t blocks = packed_lane_blocks(slots_);
  std::vector<BlockBooks> block_books(blocks);
  parallel_for_chunks(0, blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      QuantumSumTable& table = block_sums_[blk];
      const std::size_t slot_begin = blk * kPackedLanes;
      const std::size_t slot_end =
          std::min(slot_begin + kPackedLanes, slots_);
      auto next_stuck = std::lower_bound(
          stuck_.cbegin(), stuck_.cend(), slot_begin,
          [](const StuckSlot& st, std::size_t s) { return st.slot < s; });
      BlockBooks books;
      for (std::size_t s = slot_begin; s < slot_end; ++s) {
        if (next_stuck != stuck_.cend() && next_stuck->slot == s) {
          books.transitions +=
              run_slot(s, *next_stuck, a, b, table, out, books.absorbed);
          ++next_stuck;
          continue;
        }
        if (width_ == 64) {
          books.transitions +=
              run_slot(s, StuckSlot{}, a, b, table, out, books.absorbed);
          continue;
        }
        // The fault-free path below width 64.
        std::uint64_t* cum_sum = cum_sum_.data() + s * width_;
        for (std::size_t op = s; op < n_ops; op += slots_) {
          const std::uint64_t av = a[op];
          const std::uint64_t bv = b[op];
          const std::uint64_t full = av + bv;
          const std::uint64_t sum_new = full & sum_mask_;
          const std::uint64_t c_out = (full >> width_) & 1u;
          // Carries generated into bits 1..N (bit 0 of the XOR is 0).
          const std::uint64_t carries = popcount(full ^ av ^ bv);
          const std::uint64_t stale = carry_state_[s];
          // stale + c_in + 2S + 2 − 3·c_out with c_in = 0; c_out = 1
          // implies S >= 1, so the subtraction cannot underflow.
          const std::uint64_t t_carry =
              stale + 2 * carries + 2 - 3 * c_out;
          const std::uint64_t old_sum = stored_sum_[s];
          books.transitions +=
              t_carry + popcount(old_sum) + popcount(sum_new);
          // Replay the walk's energy fold over this slot's cells:
          // (carry + scratch) then each sum cell in index order; the
          // scratch cell never transitions, so its term is +0.0 and
          // drops out bit-exactly.
          cum_carry_[s] += t_carry;
          double e = table.sum(cum_carry_[s]);
          for (std::size_t i = 0; i < width_; ++i) {
            cum_sum[i] += ((old_sum >> i) & 1u) + ((sum_new >> i) & 1u);
            e += table.sum(cum_sum[i]);
          }
          out.sums[op] = sum_new;
          out.energies[op] = e - e_prev_[s];
          e_prev_[s] = e;
          stored_sum_[s] = sum_new;
          carry_state_[s] = static_cast<std::uint8_t>(c_out);
        }
      }
      block_books[blk] = books;
    }
  });

  // Exact u64 totals — order-free, but reduce in block order anyway.
  std::uint64_t absorbed = 0;
  for (const BlockBooks& books : block_books) {
    out.transitions += books.transitions;
    absorbed += books.absorbed;
  }

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

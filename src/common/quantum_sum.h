// Exact replay of repeated-quantum floating-point accumulation.
//
// Several device books accrue energy by adding the same quantum over
// and over (`energy_ += e_per_switch` per transition, `energy += e` per
// CAM mismatch).  A packed engine that recovers *counts* via popcount
// cannot report `count * quantum` for those books: repeated addition of
// a double is not multiplication, so the totals would drift off the
// scalar path by ULPs and break the bitwise-equivalence contract.
//
// QuantumSumTable memoizes the repeated-addition prefix sums
//
//   s(0) = 0.0,  s(k) = s(k-1) + quantum
//
// so a packed kernel can convert an exact transition count into the
// exact double the scalar accumulator would hold.  The table grows
// lazily through sum(), or ahead of a kernel through grow_to(), and is
// NOT thread-safe while it grows: grow it before a fan-out and only
// read it inside one (the TC-adder farm grows its one table to a bound
// before its lane blocks run, and they read it through data()).
//
// Growing copies rather than adds.  Each thread keeps one master table
// per quantum (keyed by the quantum's bits), built by the same
// recurrence from 0.0 and so holding the same doubles, and a table
// grows by extending that master as far as it needs and copying the
// entries it lacks.  A fresh table per short-lived object (the serving
// dispatcher builds a TC-adder farm per tile per add window) then costs
// a copy, not a chain of dependent additions.  Every object still owns
// its table, so the fan-out rule above is unchanged.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace memcim {

namespace detail {

/// The calling thread's master table for `quantum`: its prefix sums
/// s(0..size()-1), grown only by the recurrence.
inline std::vector<double>& master_quantum_sums(double quantum) {
  struct Master {
    std::uint64_t bits;
    std::vector<double> sums;
  };
  thread_local std::vector<Master> masters;
  const auto bits = std::bit_cast<std::uint64_t>(quantum);
  for (Master& m : masters)
    if (m.bits == bits) return m.sums;
  masters.push_back({bits, {0.0}});
  return masters.back().sums;
}

}  // namespace detail

class QuantumSumTable {
 public:
  explicit QuantumSumTable(double quantum) : quantum_(quantum) {
    partial_.push_back(0.0);
  }

  [[nodiscard]] double quantum() const { return quantum_; }

  /// The value a double accumulator holds after `count` additions of
  /// the quantum, bit-for-bit.  Kept to a bounds test and a load so it
  /// inlines into the packed engines' per-cell loops.
  [[nodiscard]] double sum(std::size_t count) {
    if (count >= partial_.size()) [[unlikely]]
      grow(count);
    return partial_[count];
  }

  /// Grow the table through `count`, so data()[0..count] are valid.
  void grow_to(std::size_t count) {
    if (count >= partial_.size()) grow(count);
  }
  /// sum(k) for every k < size(), without a bounds test.
  [[nodiscard]] const double* data() const { return partial_.data(); }
  [[nodiscard]] std::size_t size() const { return partial_.size(); }

 private:
  [[gnu::noinline]] void grow(std::size_t count) {
    std::vector<double>& master = detail::master_quantum_sums(quantum_);
    while (master.size() <= count) master.push_back(master.back() + quantum_);
    // One allocation for a jump to a bound, doubling for small steps.
    if (count >= partial_.capacity())
      partial_.reserve(std::max(count + 1, 2 * partial_.capacity()));
    const auto from = static_cast<std::ptrdiff_t>(partial_.size());
    const auto to = static_cast<std::ptrdiff_t>(count + 1);
    partial_.insert(partial_.end(), master.begin() + from, master.begin() + to);
  }

  double quantum_;
  std::vector<double> partial_;
};

}  // namespace memcim

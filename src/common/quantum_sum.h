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
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace memcim {

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
    // One allocation for a jump to a bound, doubling for small steps.
    if (count >= partial_.capacity())
      partial_.reserve(std::max(count + 1, 2 * partial_.capacity()));
    while (partial_.size() <= count)
      partial_.push_back(partial_.back() + quantum_);
  }

  double quantum_;
  std::vector<double> partial_;
};

}  // namespace memcim

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
// lazily and is NOT thread-safe: confine each instance to one thread at
// a time (the TC-adder farm keeps one per lane block for that reason).
#pragma once

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

 private:
  [[gnu::noinline]] void grow(std::size_t count) {
    while (partial_.size() <= count)
      partial_.push_back(partial_.back() + quantum_);
  }

  double quantum_;
  std::vector<double> partial_;
};

}  // namespace memcim

#include "common/rng.h"

#include <cmath>

namespace memcim {

namespace {

/// The twist of one word: the upper 33 bits of `hi` joined to the lower
/// 31 bits of `lo`, shifted, and xored with the word `far` and, when its
/// low bit is set, the matrix term, taken as a mask rather than a branch.
constexpr std::uint64_t twisted(std::uint64_t far, std::uint64_t hi,
                                std::uint64_t lo) {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ull);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k)
    state_[k] = twisted(state_[k + kShift], state_[k], state_[k + 1]);
  for (; k < kWords - 1; ++k)
    state_[k] = twisted(state_[k + kShift - kWords], state_[k], state_[k + 1]);
  state_[kWords - 1] = twisted(state_[kShift - 1], state_[kWords - 1], state_[0]);
  pos_ = 0;
}

double Rng::uniform(double lo, double hi) {
  MEMCIM_CHECK(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::lognormal_median(double median, double sigma_ln) {
  MEMCIM_CHECK(median > 0.0 && sigma_ln >= 0.0);
  if (sigma_ln == 0.0) return median;
  return std::lognormal_distribution<double>(std::log(median), sigma_ln)(engine_);
}

bool Rng::bernoulli(double p) {
  MEMCIM_CHECK(p >= 0.0 && p <= 1.0);
  return std::bernoulli_distribution(p)(engine_);
}

Rng Rng::fork() {
  // Draw a fresh seed from this stream; MT19937-64 streams seeded from
  // independent draws are effectively decorrelated for simulation use.
  return Rng(engine_());
}

}  // namespace memcim

// Deterministic random number generation.
//
// All stochastic behaviour in memcim (device variability, workload
// generation, fault injection) flows through `Rng`, so a fixed seed
// reproduces a simulation bit-for-bit.
//
// The engine is MT19937-64 and reproduces `std::mt19937_64` bit for
// bit: the same seeding recurrence, the same twist and tempering
// constants, the same output stream (tests/common/rng_test.cpp holds it
// to the standard engine).  It exists because of one line of the
// twist.  libstdc++ writes the matrix term as `(y & 1) ? a : 0`, and
// GCC 12 at -O2 compiles that to a conditional branch on a random bit
// (`and $0x1; je; xor` in `_M_gen_rand`), which mispredicts about half
// the time: about 12 ns per output.  Here the term is the mask
// `(0 - (y & 1)) & a`, which has no branch.  Every digest and baseline
// depends on this exact stream, so the engine must not change.
#pragma once

#include <array>
#include <cstdint>
#include <random>

#include "common/error.h"

namespace memcim {

/// MT19937-64 with a branch-free twist; a UniformRandomBitGenerator
/// whose output equals `std::mt19937_64` seeded with the same value, so
/// every standard distribution draws the same values over either.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kWords) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kWords = 312;  ///< state size n
  static constexpr std::size_t kShift = 156;  ///< twist offset m

  /// Regenerate all kWords words of state.
  void twist();

  std::array<result_type, kWords> state_{};
  std::size_t pos_ = kWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC1Au) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MEMCIM_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Lognormal parameterized by the *median* and the sigma of ln(x):
  /// the conventional way memristor R_on/R_off spreads are reported.
  [[nodiscard]] double lognormal_median(double median, double sigma_ln);

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Derive an independent child stream (e.g. one per crossbar device).
  [[nodiscard]] Rng fork();

  [[nodiscard]] Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// splitmix64 finalizer: a bijective 64-bit mix that decorrelates
/// (seed, salt) pairs into independent stream seeds and turns packet
/// digests into fingerprints and per-flit wire data.  Fault outcomes,
/// NoC wire data and every payload fingerprint derive from it.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace memcim

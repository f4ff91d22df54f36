// Deterministic random number generation.
//
// All stochastic behaviour in memcim (device variability, workload
// generation, fault injection) flows through `Rng`, so a fixed seed
// reproduces a simulation bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace memcim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC1Au) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Lognormal parameterized by the *median* and the sigma of ln(x):
  /// the conventional way memristor R_on/R_off spreads are reported.
  [[nodiscard]] double lognormal_median(double median, double sigma_ln);

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Derive an independent child stream (e.g. one per crossbar device).
  [[nodiscard]] Rng fork();

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
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

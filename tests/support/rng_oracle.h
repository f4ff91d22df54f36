// The reference for `Rng`: each of its methods drawn through
// `std::mt19937_64`, the engine `Mt19937_64` must reproduce bit for
// bit, with the same standard distributions.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace memcim {

class StdRngOracle {
 public:
  explicit StdRngOracle(std::uint64_t seed = 0xC1Au) : engine_(seed) {}

  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  [[nodiscard]] double lognormal_median(double median, double sigma_ln) {
    if (sigma_ln == 0.0) return median;
    return std::lognormal_distribution<double>(std::log(median),
                                               sigma_ln)(engine_);
  }
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  [[nodiscard]] double normal(double mean, double stddev) {
    if (stddev == 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  [[nodiscard]] StdRngOracle fork() { return StdRngOracle(engine_()); }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace memcim

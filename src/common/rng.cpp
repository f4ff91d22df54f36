#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace memcim {

double Rng::uniform(double lo, double hi) {
  MEMCIM_CHECK(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MEMCIM_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
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
  // Draw a fresh seed from this stream; mt19937_64 streams seeded from
  // independent draws are effectively decorrelated for simulation use.
  return Rng(engine_());
}

}  // namespace memcim

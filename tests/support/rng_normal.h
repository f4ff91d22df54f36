// Normal draws from an Rng stream, for tests.  No binary draws normal
// variates (variability uses lognormal spreads).
#pragma once

#include <random>

#include "common/error.h"
#include "common/rng.h"

namespace memcim {

/// Normal with given mean and standard deviation.
[[nodiscard]] inline double normal(Rng& rng, double mean, double stddev) {
  MEMCIM_CHECK(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(rng.engine());
}

}  // namespace memcim

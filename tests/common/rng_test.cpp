#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "support/rng_normal.h"

namespace memcim {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveAndCoversRange) {
  Rng rng(4);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 4000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = normal(rng, 3.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, NormalZeroSigmaIsDeterministic) {
  Rng rng(6);
  EXPECT_DOUBLE_EQ(normal(rng, 7.0, 0.0), 7.0);
}

TEST(Rng, LognormalMedianProperty) {
  Rng rng(7);
  const int n = 20001;
  std::vector<double> samples(n);
  for (auto& s : samples) s = rng.lognormal_median(10e3, 0.3);
  std::sort(samples.begin(), samples.end());
  // Median of lognormal_median(m, σ) is m.
  EXPECT_NEAR(samples[n / 2], 10e3, 500.0);
  for (double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkProducesDecorrelatedStream) {
  Rng parent(9);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.uniform() == child.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(10);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW((void)normal(rng, 0.0, -1.0), Error);
  EXPECT_THROW((void)rng.lognormal_median(-1.0, 0.1), Error);
  EXPECT_THROW((void)rng.bernoulli(1.5), Error);
}

}  // namespace
}  // namespace memcim

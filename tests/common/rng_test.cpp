#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "support/rng_normal.h"
#include "support/rng_oracle.h"

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
  EXPECT_THROW((void)rng.uniform_int(2, 1), Error);
  EXPECT_THROW((void)normal(rng, 0.0, -1.0), Error);
  EXPECT_THROW((void)rng.lognormal_median(-1.0, 0.1), Error);
  EXPECT_THROW((void)rng.bernoulli(1.5), Error);
}

// -- the engine against std::mt19937_64 --------------------------------------

static_assert(std::uniform_random_bit_generator<Mt19937_64>);
static_assert(std::is_same_v<Mt19937_64::result_type, std::uint64_t>);
static_assert(Mt19937_64::min() == 0);
static_assert(Mt19937_64::max() == std::numeric_limits<std::uint64_t>::max());

/// `outputs` draws of both engines seeded with `seed`, one check per
/// output, stopping at the first that differs.
void expect_same_stream(std::uint64_t seed, std::size_t outputs) {
  Mt19937_64 ours(seed);
  std::mt19937_64 oracle(seed);
  for (std::size_t i = 0; i < outputs; ++i)
    ASSERT_EQ(ours(), oracle()) << "seed " << seed << ", output " << i;
}

TEST(Mt19937_64, MatchesTheStdEngineOnEverySeed) {
  std::vector<std::uint64_t> seeds = {
      0, 1, 0xC1A, 42, std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t i = 0; i < 32; ++i) seeds.push_back(splitmix64(i));
  // 2,000 outputs: six refills of the 312-word state and part of a
  // seventh.
  for (const std::uint64_t seed : seeds) expect_same_stream(seed, 2000);
}

TEST(Mt19937_64, MatchesTheStdEngineForAMillionOutputs) {
  expect_same_stream(0xC1A, 1'000'000);
}

// -- every Rng method against the same call over std::mt19937_64 -------------

/// A double's bits, so draws compare exactly.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// After equal draws both engines stand at the same stream position.
void expect_same_position(Rng& rng, StdRngOracle& oracle) {
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(rng.engine()(), oracle.engine()()) << "raw output " << i;
}

TEST(RngVsStdEngine, Uniform) {
  Rng rng(11);
  StdRngOracle oracle(11);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(bits(rng.uniform()), bits(oracle.uniform())) << i;
    ASSERT_EQ(bits(rng.uniform(-2.0, 5.0)), bits(oracle.uniform(-2.0, 5.0)))
        << i;
  }
  expect_same_position(rng, oracle);
}

TEST(RngVsStdEngine, UniformInt) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  for (const int w : {1, 16, 32, 63})
    ranges.emplace_back(0, static_cast<std::int64_t>((std::uint64_t{1} << w) - 1));
  ranges.emplace_back(-5, 1'000'000'006);
  ranges.emplace_back(kMin, kMax);
  for (const auto& [lo, hi] : ranges) {
    Rng rng(12);
    StdRngOracle oracle(12);
    for (int i = 0; i < 2000; ++i)
      ASSERT_EQ(rng.uniform_int(lo, hi), oracle.uniform_int(lo, hi))
          << "[" << lo << ", " << hi << "], draw " << i;
    expect_same_position(rng, oracle);
  }
}

/// 2^63 + 1 values: about half of the engine's outputs fall in the
/// rejected zone, so the draws consume more outputs than there are
/// draws, and both sides must reject the same ones.
TEST(RngVsStdEngine, UniformIntRejectsTheSameOutputs) {
  constexpr std::int64_t kHalf = std::int64_t{1} << 62;
  Rng rng(13);
  StdRngOracle oracle(13);
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(rng.uniform_int(-kHalf, kHalf), oracle.uniform_int(-kHalf, kHalf))
        << i;
  std::mt19937_64 one_output_per_draw(13);
  one_output_per_draw.discard(1000);
  const std::uint64_t next = rng.engine()();
  EXPECT_EQ(next, oracle.engine()());
  EXPECT_NE(next, one_output_per_draw());
}

TEST(RngVsStdEngine, LognormalMedian) {
  Rng rng(14);
  StdRngOracle oracle(14);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(bits(rng.lognormal_median(10e3, 0.3)),
              bits(oracle.lognormal_median(10e3, 0.3)))
        << i;
    ASSERT_EQ(bits(rng.lognormal_median(10e3, 0.0)),
              bits(oracle.lognormal_median(10e3, 0.0)))
        << i;
  }
  expect_same_position(rng, oracle);
}

TEST(RngVsStdEngine, Bernoulli) {
  for (const double p : {0.0, 0.25, 1.0}) {
    Rng rng(15);
    StdRngOracle oracle(15);
    for (int i = 0; i < 2000; ++i)
      ASSERT_EQ(rng.bernoulli(p), oracle.bernoulli(p)) << "p " << p << ", " << i;
    expect_same_position(rng, oracle);
  }
}

TEST(RngVsStdEngine, Normal) {
  Rng rng(16);
  StdRngOracle oracle(16);
  for (int i = 0; i < 2000; ++i)
    ASSERT_EQ(bits(normal(rng, 3.0, 2.0)), bits(oracle.normal(3.0, 2.0))) << i;
  expect_same_position(rng, oracle);
}

TEST(RngVsStdEngine, ForkedChild) {
  Rng rng(17);
  StdRngOracle oracle(17);
  (void)rng.uniform();
  (void)oracle.uniform();
  Rng child = rng.fork();
  StdRngOracle oracle_child = oracle.fork();
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(child.engine()(), oracle_child.engine()()) << i;
  expect_same_position(rng, oracle);
}

/// 500 draws leave the copy 188 outputs into its second refill block.
TEST(Rng, CopyPartwayThroughARefillContinuesTheStream) {
  Rng original(18);
  for (int i = 0; i < 500; ++i) (void)original.engine()();
  Rng copy = original;
  for (int i = 0; i < 2000; ++i)
    ASSERT_EQ(copy.engine()(), original.engine()()) << i;
}

}  // namespace
}  // namespace memcim

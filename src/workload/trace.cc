#include "src/workload/trace.h"

#include <cmath>
#include <utility>

#include "src/util/strings.h"

namespace sns {
namespace {

// Minute-scale modulation (AR(1) on log rate, stepped every minute).
constexpr double kSlowRho = 0.95;
constexpr double kSlowSigma = 0.22;
// Second-scale modulation.
constexpr double kFastRho = 0.90;
constexpr double kFastSigma = 0.40;
// Zipf skew of user activity over the user population.
constexpr double kUserZipfSkew = 0.7;

}  // namespace

TraceGenerator::TraceGenerator(const TraceGenConfig& config, const ContentUniverse* universe)
    : config_(config), universe_(universe) {}

int64_t TraceGenerator::Generate(const std::function<void(const TraceRecord&)>& emit) {
  Rng rng(config_.seed);
  Rng url_rng = rng.Fork();
  Rng user_rng = rng.Fork();

  // Normalize the lognormal modulators to unit mean: E[exp(X)] = exp(sigma_st^2/2)
  // for the stationary X ~ N(0, sigma_st^2) with sigma_st^2 = sigma^2/(1-rho^2)...
  // Here the step noise has stddev sigma*sqrt(1-rho^2), making the stationary
  // stddev exactly sigma, so subtract sigma^2/2.
  double slow_x = 0.0;
  double fast_x = 0.0;
  double slow_correction = kSlowSigma * kSlowSigma / 2.0;
  double fast_correction = kFastSigma * kFastSigma / 2.0;

  int64_t total_seconds = config_.duration / kSecond;
  int64_t generated = 0;
  for (int64_t sec = 0; sec < total_seconds; ++sec) {
    if (sec % 60 == 0) {
      double noise = rng.Normal(0.0, kSlowSigma * std::sqrt(1.0 - kSlowRho * kSlowRho));
      slow_x = kSlowRho * slow_x + noise;
    }
    double fast_noise = rng.Normal(0.0, kFastSigma * std::sqrt(1.0 - kFastRho * kFastRho));
    fast_x = kFastRho * fast_x + fast_noise;

    double t_frac = static_cast<double>(sec * kSecond) / static_cast<double>(config_.diurnal_period);
    // Trough in the early morning, peak in the evening (paper Fig. 6a).
    double diurnal = 1.0 + config_.diurnal_amplitude * std::sin(2.0 * M_PI * t_frac - M_PI / 2);
    double rate = config_.mean_rate * diurnal * std::exp(slow_x - slow_correction) *
                  std::exp(fast_x - fast_correction);
    int64_t count = rng.Poisson(rate);
    for (int64_t i = 0; i < count; ++i) {
      TraceRecord record;
      record.time = sec * kSecond + rng.UniformInt(0, kSecond - 1);
      int64_t user = user_rng.Zipf(config_.user_count, kUserZipfSkew);
      record.user_id = StrFormat("user%lld", static_cast<long long>(user));
      record.url = universe_ != nullptr ? universe_->SamplePopularUrl(&url_rng)
                                        : StrFormat("http://example.edu/obj%lld.html",
                                                    static_cast<long long>(i));
      emit(record);
      ++generated;
    }
  }
  return generated;
}

std::vector<TraceRecord> TraceGenerator::GenerateVector() {
  std::vector<TraceRecord> records;
  Generate([&records](const TraceRecord& r) { records.push_back(r); });
  // Within-second timestamps are random; sort so playback sees ordered times.
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  return records;
}

std::function<TraceRecord()> UniformUrls(const ContentUniverse* universe, uint64_t seed,
                                         std::string user_id) {
  return [universe, rng = Rng(seed), user_id = std::move(user_id)]() mutable {
    TraceRecord record;
    record.user_id = user_id;
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  };
}

std::vector<int64_t> BucketCounts(const std::vector<SimTime>& times, SimDuration bucket,
                                  SimDuration total) {
  auto buckets = static_cast<size_t>((total + bucket - 1) / bucket);
  std::vector<int64_t> counts(buckets, 0);
  for (SimTime t : times) {
    if (t >= 0 && t < total) {
      ++counts[static_cast<size_t>(t / bucket)];
    }
  }
  return counts;
}

}  // namespace sns

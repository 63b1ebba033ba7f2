// Synthetic HTTP request traces with the burstiness structure of Fig. 6.
//
// The paper's traced load shows "a strong 24 hour cycle that is overlaid with
// shorter time-scale bursts" visible at 2-minute, 30-second and 1-second bucketings
// (5.8 req/s avg / 12.6 peak over 24 h; 8.1 avg / 20 peak over 3.5 min). The
// generator composes a diurnal sinusoid with two lognormal AR(1) modulation
// processes (minute-scale and second-scale), then draws per-second Poisson counts —
// reproducing bursts across all three displayed time scales.

#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"
#include "src/workload/content_universe.h"

namespace sns {

struct TraceRecord {
  SimTime time = 0;
  std::string user_id;
  std::string url;
  // Extra request parameters (e.g., HotBot's query string).
  std::map<std::string, std::string> params;
};

struct TraceGenConfig {
  uint64_t seed = 0x7124CE;
  SimDuration duration = Hours(24);
  double mean_rate = 5.8;           // Requests/second (paper Fig. 6a average).
  double diurnal_amplitude = 0.55;  // Peak-to-mean swing of the 24 h cycle.
  SimDuration diurnal_period = Hours(24);

  int64_t user_count = 8000;  // ~8000 distinct users surfed during the trace (§4.6).
};

class TraceGenerator {
 public:
  TraceGenerator(const TraceGenConfig& config, const ContentUniverse* universe);

  // Streams records in time order. Returns the number generated.
  int64_t Generate(const std::function<void(const TraceRecord&)>& emit);

  // Convenience for small traces.
  std::vector<TraceRecord> GenerateVector();

  // The instantaneous target rate at `t` for the generator's current modulation
  // state — exposed for tests of the arrival model.
  double mean_rate() const { return config_.mean_rate; }

 private:
  TraceGenConfig config_;
  const ContentUniverse* universe_;
};

// The uniform constant-rate load of the benches, tests and chaos harness: each
// call draws one URL index uniformly from [0, url_count) with its own Rng(seed),
// requested by `user_id`. Copies of the returned source advance independently.
std::function<TraceRecord()> UniformUrls(const ContentUniverse* universe, uint64_t seed,
                                         std::string user_id);

// Buckets record timestamps and reports per-bucket counts — the analysis behind
// Fig. 6's three panels. Returns counts indexed by bucket.
std::vector<int64_t> BucketCounts(const std::vector<SimTime>& times, SimDuration bucket,
                                  SimDuration total);

}  // namespace sns

#endif  // SRC_WORKLOAD_TRACE_H_

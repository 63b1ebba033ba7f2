// The origin server: the simulated Internet behind the proxy.
//
// Models the paper's cache-miss penalty (§4.4): "The miss penalty (i.e., the time
// to fetch data from the Internet) varies widely, from 100 ms through 100 seconds."
// Fetch latency is drawn from a heavy-tailed lognormal clipped to that range, on
// top of the (optionally 10 Mb/s) origin link's serialization delay.

#ifndef SRC_WORKLOAD_ORIGIN_SERVER_H_
#define SRC_WORKLOAD_ORIGIN_SERVER_H_

#include "src/cluster/process.h"
#include "src/sns/messages.h"
#include "src/util/rng.h"
#include "src/workload/content_universe.h"

namespace sns {

struct OriginConfig {
  uint64_t seed = 0x0121617;
  // Lognormal "wide-area RTT + server time" parameters; median ~600 ms with a tail
  // into tens of seconds, clipped to [min, max].
  double latency_mu = -0.5;   // log(seconds)
  double latency_sigma = 1.1;
  SimDuration min_latency = Milliseconds(100);
  SimDuration max_latency = Seconds(100);
};

class OriginServerProcess : public Process {
 public:
  OriginServerProcess(const OriginConfig& config, const ContentUniverse* universe);

  void OnMessage(const Message& msg) override;

  int64_t fetches_served() const { return fetches_; }
  int64_t bytes_served() const { return bytes_; }

 private:
  OriginConfig config_;
  const ContentUniverse* universe_;
  Rng rng_;
  int64_t fetches_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace sns

#endif  // SRC_WORKLOAD_ORIGIN_SERVER_H_

// Section 4.6: SAN saturation.
//
// "As a preliminary exploration of how TranSend behaves as the SAN saturates, we
// repeated the scalability experiments using a 10 Mb/s switched Ethernet. As the
// network was driven closer to saturation, we noticed that most of our (unreliable)
// multicast traffic was being dropped, crippling the ability of the manager to
// balance load and the ability of the monitor to report system conditions."
//
// This bench runs the same fixed-JPEG workload on a 100 Mb/s and a 10 Mb/s SAN and
// reports datagram (beacon / load-report) loss, balancing quality, and throughput.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/logging.h"

namespace sns {
namespace {

struct SanResult {
  double offered = 0;
  double achieved = 0;
  int64_t datagrams_dropped = 0;
  int64_t reports_received = 0;
  double avg_imbalance = 0;
  double mean_latency = 0;
  int64_t monitor_alarms = 0;
};

SanResult RunOn(double bandwidth_bps, double rate) {
  TranSendOptions options = RedistillOptions(40);
  options.topology.worker_pool_nodes = 6;
  options.topology.san.default_link.bandwidth_bps = bandwidth_bps;
  // Shallow NIC buffers for unreliable traffic: queueing beyond ~25 ms drops
  // datagrams (the paper's multicast loss mechanism).
  options.topology.san.default_link.max_datagram_queue_delay = Milliseconds(25);
  LinkConfig fe_link = options.topology.san.default_link;
  fe_link.per_message_overhead = Milliseconds(2.1);
  options.topology.fe_link = fe_link;
  TranSendService service(options);
  service.Start();
  for (int i = 0; i < 4; ++i) {
    service.system()->StartWorker(kJpegDistillerType);
  }
  PlaybackEngine* client = benchutil::PrewarmedClient(&service, 0x5A7);

  int64_t dropped_before = service.system()->san()->datagrams_dropped();
  int64_t reports_before = service.system()->manager() != nullptr
                               ? service.system()->manager()->reports_received()
                               : 0;
  client->StartConstantRate(rate, UniformUrls(service.universe(), 0x5A7, "san"));

  RunningStats imbalance;
  SimTime t0 = service.sim()->now();
  for (int second = 1; second <= 120; ++second) {
    service.sim()->RunUntil(t0 + Seconds(second));
    double spread = benchutil::QueueSpread(service.system());
    if (spread >= 0) {
      imbalance.Add(spread);
    }
  }
  client->StopLoad();
  benchutil::DumpBenchArtifact(service.system(), "sec46_san_saturation");

  SanResult result;
  result.offered = rate;
  result.achieved = static_cast<double>(client->completed()) / 120.0;
  result.datagrams_dropped = service.system()->san()->datagrams_dropped() - dropped_before;
  result.reports_received = service.system()->manager() != nullptr
                                ? service.system()->manager()->reports_received() - reports_before
                                : 0;
  result.avg_imbalance = imbalance.mean();
  result.mean_latency = client->latency_stats().mean();
  result.monitor_alarms = service.system()->monitor() != nullptr
                              ? static_cast<int64_t>(service.system()->monitor()->alarms().size())
                              : 0;
  return result;
}

void Run() {
  Logger::Get().set_min_level(LogLevel::kNone);
  benchutil::Header("Section 4.6: SAN saturation (100 Mb/s vs 10 Mb/s)",
                    "paper Section 4.6, last paragraphs");

  std::printf("\nworkload: 52 req/s of ~10 KB re-distilled JPEGs, 4 distillers pinned\n");
  SanResult fast = RunOn(100e6, 52);
  SanResult slow = RunOn(10e6, 52);

  std::printf("\n%-34s %-16s %-16s\n", "", "100 Mb/s SAN", "10 Mb/s SAN");
  std::printf("%-34s %-16.1f %-16.1f\n", "achieved throughput (req/s)", fast.achieved,
              slow.achieved);
  std::printf("%-34s %-16lld %-16lld\n", "control datagrams dropped",
              static_cast<long long>(fast.datagrams_dropped),
              static_cast<long long>(slow.datagrams_dropped));
  std::printf("%-34s %-16lld %-16lld\n", "load reports reaching manager",
              static_cast<long long>(fast.reports_received),
              static_cast<long long>(slow.reports_received));
  std::printf("%-34s %-16.2f %-16.2f\n", "avg distiller queue imbalance", fast.avg_imbalance,
              slow.avg_imbalance);
  std::printf("%-34s %-16.3f %-16.3f\n", "mean request latency (s)", fast.mean_latency,
              slow.mean_latency);
  std::printf("%-34s %-16lld %-16lld\n", "monitor alarms (silent components)",
              static_cast<long long>(fast.monitor_alarms),
              static_cast<long long>(slow.monitor_alarms));
  std::printf("\nExpected shape (paper): on the saturated 10 Mb/s SAN the unreliable multicast\n"
              "control traffic is dropped, crippling load balancing (higher imbalance and\n"
              "latency, fewer reports through) while the 100 Mb/s SAN is unaffected.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

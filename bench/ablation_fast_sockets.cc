// Ablation: front-end TCP processing cost — the paper's footnote 5.
//
// "We believe that TCP connection setup and processing overhead is the dominating
// factor [in FE segment capacity]. Using a more efficient TCP implementation such
// as Fast Sockets [52] may alleviate this limitation."
//
// This bench measures the single-front-end saturation point under three per-message
// kernel-processing costs: the calibrated 1997 TCP stack (~2.1 ms/message), a
// Fast-Sockets-like lightweight path (~0.7 ms), and a near-zero user-level stack —
// confirming the FE ceiling is kernel-bound, not bandwidth-bound.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

double MeasureFeCapacity(double per_message_ms) {
  TranSendOptions options = RedistillOptions(40);
  options.topology.worker_pool_nodes = 10;  // Distillers never the bottleneck here.
  LinkConfig fe_link = options.topology.san.default_link;
  fe_link.per_message_overhead = Milliseconds(per_message_ms);
  options.topology.fe_link = fe_link;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = benchutil::PrewarmedClient(&service, 0xFA57);
  client->StartConstantRate(10, UniformUrls(service.universe(), 0xFA57, "fs"));
  double sustainable = 0;
  for (double rate = 10; rate <= 240; rate += 10) {
    client->SetRate(rate);
    service.sim()->RunFor(Seconds(20));
    double achieved = client->RecentThroughput(Seconds(12));
    if (achieved >= 0.97 * rate) {
      sustainable = achieved;
    } else if (achieved < 0.85 * rate) {
      break;  // Clearly past saturation.
    }
  }
  client->StopLoad();
  benchutil::DumpBenchArtifact(service.system(), "ablation_fast_sockets");
  return sustainable;
}

void Run() {
  Logger::Get().set_min_level(LogLevel::kNone);
  benchutil::Header("Ablation: FE TCP processing cost (the Fast Sockets footnote)",
                    "paper Section 4.6, footnote 5");

  struct Variant {
    const char* label;
    double per_message_ms;
  };
  Variant variants[] = {
      {"1997 kernel TCP (calibrated)", 2.1},
      {"Fast Sockets-like path", 0.7},
      {"near-zero user-level stack", 0.15},
  };
  std::printf("\n%-32s %-18s\n", "FE network stack", "single-FE capacity");
  for (const Variant& variant : variants) {
    double capacity = MeasureFeCapacity(variant.per_message_ms);
    std::printf("%-32s %.0f req/s\n", variant.label, capacity);
  }
  std::printf("\nExpected: capacity scales roughly inversely with per-message kernel cost —\n"
              "the FE segment ceiling is processing-bound (the paper measured the FE\n"
              "spending >70%% of its time in the kernel), not bandwidth-bound. A faster\n"
              "stack moves the bottleneck back to the distillers.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

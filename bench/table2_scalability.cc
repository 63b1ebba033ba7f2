// Table 2: the scalability experiment (paper §4.6).
//
// Method, following the paper:
//   1. Start a minimal instance (one front end, the manager, cache partitions; the
//      first distiller spawns on demand).
//   2. Offer a fixed-rate load of ~10 KB cached JPEG images with distilled-variant
//      caching disabled, so every request re-distills.
//   3. Increase the offered load; the manager spawns distillers as their queues
//      cross the threshold. When the front end's network path saturates (achieved
//      throughput stops tracking offered load while distiller queues stay short),
//      spawn another front end.
//   4. Record, for each load band, how many FEs/distillers sustain it and which
//      element saturated — the paper found ~23 req/s per distiller and ~70 req/s
//      per FE segment, with near-linear growth to 159 req/s.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// `short_mode` (--short): a coarse sweep with brief steps, for CI smoke runs that
// only validate the harness and the emitted artifact, not the Table 2 band edges.
int Run(bool short_mode) {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header("Table 2: scalability sweep (offered load vs resources)",
                    "paper Table 2 / Section 4.6");
  const double kRateStep = short_mode ? 8 : 4;
  const double kRateMax = short_mode ? 48 : 160;
  const SimDuration kStep = short_mode ? Seconds(10) : Seconds(30);

  TranSendOptions options = RedistillOptions(40);
  options.topology.worker_pool_nodes = 10;
  options.topology.front_ends = 1;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = benchutil::PrewarmedClient(&service, 0x7AB1E2);

  std::printf("\n%-10s %-6s %-11s %-11s %-9s %s\n", "offered", "#FE", "#distillers",
              "achieved", "ach/off", "note");

  struct Event {
    double rate;
    std::string what;
  };
  std::vector<Event> events;
  int last_fes = 1;
  int last_distillers = 0;
  int starved_steps = 0;
  double max_sustained = 0;
  int distillers_at_max = 1;

  client->StartConstantRate(4, UniformUrls(service.universe(), 0x5CA1E, "loadgen"));
  for (double rate = kRateStep; rate <= kRateMax; rate += kRateStep) {
    client->SetRate(rate);
    service.sim()->RunFor(kStep);
    double achieved = client->RecentThroughput(kStep * 2 / 3);
    int distillers = static_cast<int>(service.system()->live_workers(kJpegDistillerType).size());
    int fes = static_cast<int>(service.system()->front_ends().size());
    double ratio = achieved / rate;
    if (ratio >= 0.97 && achieved > max_sustained) {
      max_sustained = achieved;
      distillers_at_max = std::max(distillers, 1);
    }

    std::string note;
    if (ratio < 0.96) {
      double avg_queue = service.system()->manager() != nullptr
                             ? service.system()->manager()->SmoothedQueue(kJpegDistillerType)
                             : 0.0;
      if (avg_queue < 5.0) {
        // Distillers idle yet throughput lags: the FE network path is the
        // bottleneck. Add a front end, as the paper's operators did at 87 req/s.
        ++starved_steps;
        if (starved_steps >= 2) {
          service.system()->AddFrontEnd();
          note = "FE segment saturated -> spawned FE";
          starved_steps = 0;
        } else {
          note = "FE segment saturating";
        }
      } else {
        note = "distillers saturated (manager spawning)";
        starved_steps = 0;
      }
    } else {
      starved_steps = 0;
    }

    std::printf("%-10.0f %-6d %-11d %-11.1f %-9.2f %s\n", rate, fes, distillers, achieved,
                ratio, note.c_str());

    if (distillers > last_distillers) {
      events.push_back(
          {rate, StrFormat("distiller #%d spawned (element saturated: distillers)", distillers)});
      last_distillers = distillers;
    }
    if (fes > last_fes) {
      events.push_back(
          {rate, StrFormat("front end #%d added (element saturated: FE Ethernet)", fes)});
      last_fes = fes;
    }
  }
  client->StopLoad();

  std::printf("\n--- Resource-addition events (compare paper Table 2 band edges) ---\n");
  for (const Event& event : events) {
    std::printf("  at ~%3.0f req/s: %s\n", event.rate, event.what.c_str());
  }
  std::printf("\nMax sustained throughput (>=97%% of offered): %.0f req/s with %d distillers\n",
              max_sustained, distillers_at_max);
  std::printf("Per-distiller capacity at that point: ~%.1f req/s (paper: ~23)\n",
              max_sustained / distillers_at_max);
  std::printf("\nPaper Table 2: distillers saturate at 24/47/72 req/s (1->2->3->4 distillers);\n"
              "FE Ethernet saturates at ~73-87 req/s (1->2 FEs) and again near 113-135;\n"
              "growth is near-linear to 159 req/s.\n");

  int64_t checked = benchutil::CheckStageSums(service.system());
  std::printf("critical-path stage sums exact for %lld retained request(s)\n",
              static_cast<long long>(checked));
  bool dumped = benchutil::DumpBenchArtifact(service.system(), "table2_scalability");
  return (checked > 0 && dumped) ? 0 : 1;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  return sns::Run(sns::benchutil::ShortMode(argc, argv));
}

// Figure 8: distiller queue lengths over time — self-tuning load balancing, demand
// spawning, and recovery from killed distillers (paper §4.5).
//
// Reproduced script (distiller cost set to the GIF-dominated trace's ~8 ms/KB, so a
// distiller sustains ~12 req/s as in the paper's run):
//   - Bootstrap with one front end + manager; offered load ramps 8 -> 40 req/s.
//   - The first distiller spawns on demand as soon as load is offered; further
//     distillers spawn as the managed queue average crosses threshold H, and the
//     stubs rebalance within a few seconds.
//   - At t=300 s the first two distillers are manually killed (Fig. 8b): the
//     manager reacts immediately with one spawn, discovers after the cooldown D
//     that the system is still overloaded, and spawns one more; load stabilizes.
//   - The §4.5 oscillation ablation runs a steady-state phase (no kills) with the
//     stub-side queue-delta estimation on vs off and compares imbalance/jitter.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

TranSendOptions Fig8Options(bool delta_estimation) {
  TranSendOptions options = RedistillOptions(40);
  options.topology.worker_pool_nodes = 8;
  options.jpeg_distill_per_kb = Milliseconds(8);  // Fig. 7's GIF slope.
  options.sns.use_delta_estimation = delta_estimation;
  options.sns.track_inflight_tasks = delta_estimation;
  return options;
}

void RunTimeSeries() {
  TranSendService service(Fig8Options(true));
  service.Start();
  PlaybackEngine* client = benchutil::PrewarmedClient(&service, 0xF168);

  std::printf("\n%-8s %-8s %-11s  per-distiller queue lengths\n", "t (s)", "offered",
              "#distillers");

  client->StartConstantRate(8, UniformUrls(service.universe(), 0xF168, "loadgen"));
  SimTime t0 = service.sim()->now();
  int last_count = 0;
  for (int second = 1; second <= 450; ++second) {
    double offered = std::min(8.0 + (second / 50) * 8.0, 40.0);
    client->SetRate(offered);
    if (second == 300) {
      auto workers = service.system()->live_workers(kJpegDistillerType);
      for (size_t i = 0; i < workers.size() && i < 2; ++i) {
        service.system()->cluster()->Crash(workers[i]->pid());
      }
      std::printf("%-8d --- manually killed distillers 1 & 2 (Fig. 8b) ---\n", second);
    }
    service.sim()->RunUntil(t0 + Seconds(second));

    auto workers = service.system()->live_workers(kJpegDistillerType);
    if (second % 10 == 0 || static_cast<int>(workers.size()) != last_count) {
      std::printf("%-8d %-8.0f %-11zu ", second, offered, workers.size());
      for (WorkerProcess* worker : workers) {
        std::printf(" %5.1f", worker->QueueLength());
      }
      if (static_cast<int>(workers.size()) > last_count && last_count > 0) {
        std::printf("   <- distiller #%zu started", workers.size());
      }
      std::printf("\n");
    }
    last_count = static_cast<int>(workers.size());
  }
  client->StopLoad();
  std::printf("\nrequests completed: %lld, errors: %lld, mean latency %.3f s\n",
              static_cast<long long>(client->completed()),
              static_cast<long long>(client->errors()), client->latency_stats().mean());
}

struct AblationResult {
  double avg_imbalance = 0;
  double avg_jitter = 0;
  double mean_latency = 0;
  double p95_latency = 0;
};

AblationResult RunSteadyState(bool delta_estimation) {
  TranSendService service(Fig8Options(delta_estimation));
  service.Start();
  // Pre-spawn four distillers so the test isolates balancing, not spawning.
  for (int i = 0; i < 4; ++i) {
    service.system()->StartWorker(kJpegDistillerType);
  }
  PlaybackEngine* client = benchutil::PrewarmedClient(&service, 0xAB1A7E);
  client->StartConstantRate(40, UniformUrls(service.universe(), 0xAB1A7E, "steady"));

  RunningStats imbalance;
  RunningStats jitter;
  std::vector<double> prev;
  SimTime t0 = service.sim()->now();
  for (int second = 1; second <= 200; ++second) {
    service.sim()->RunUntil(t0 + Seconds(second));
    auto workers = service.system()->live_workers(kJpegDistillerType);
    std::vector<double> queues;
    for (WorkerProcess* worker : workers) {
      queues.push_back(worker->QueueLength());
    }
    if (queues.size() >= 2) {
      imbalance.Add(*std::max_element(queues.begin(), queues.end()) -
                    *std::min_element(queues.begin(), queues.end()));
    }
    for (size_t i = 0; i < std::min(queues.size(), prev.size()); ++i) {
      jitter.Add(std::abs(queues[i] - prev[i]));
    }
    prev = queues;
  }
  client->StopLoad();
  benchutil::DumpBenchArtifact(service.system(), "fig8_load_balancing");

  AblationResult result;
  result.avg_imbalance = imbalance.mean();
  result.avg_jitter = jitter.mean();
  result.mean_latency = client->latency_stats().mean();
  result.p95_latency = client->latency_histogram().Percentile(0.95);
  return result;
}

void Run() {
  Logger::Get().set_min_level(LogLevel::kError);
  benchutil::Header("Figure 8: distiller queue dynamics under ramping load + kills",
                    "paper Fig. 8 / Section 4.5");
  RunTimeSeries();

  std::printf("\n--- Oscillation ablation at steady state (the §4.5 stale-data fix) ---\n");
  AblationResult tuned = RunSteadyState(true);
  AblationResult raw = RunSteadyState(false);
  std::printf("%-34s %-18s %-18s\n", "", "delta estimation", "raw stale hints");
  std::printf("%-34s %-18.2f %-18.2f\n", "avg queue imbalance (max-min)", tuned.avg_imbalance,
              raw.avg_imbalance);
  std::printf("%-34s %-18.2f %-18.2f\n", "avg per-second queue jitter", tuned.avg_jitter,
              raw.avg_jitter);
  std::printf("%-34s %-18.3f %-18.3f\n", "mean latency (s)", tuned.mean_latency,
              raw.mean_latency);
  std::printf("%-34s %-18.3f %-18.3f\n", "p95 latency (s)", tuned.p95_latency,
              raw.p95_latency);
  std::printf("\nPaper: balancing on raw periodic reports caused 'rapid oscillations in queue\n"
              "lengths'; the running delta estimate 'eliminated the oscillations'.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

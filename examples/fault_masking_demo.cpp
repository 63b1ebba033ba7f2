// Fault-masking demo: live narration of the paper's §3.1.3 process-peer web.
//
// While a steady request stream flows, this demo kills — in order — a distiller, the
// manager, a front end, a cache node, and finally a whole node, and shows the
// service absorbing every one of them: "it is 'merely' a matter of software to mask
// (possibly multiple simultaneous) transient faults" (§1.2).
//
// Run:  ./build/examples/fault_masking_demo

#include <cstdio>

#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

int64_t completed_checkpoint = 0;

void Report(TranSendService* service, PlaybackEngine* client, const char* phase) {
  int64_t done = client->completed() - completed_checkpoint;
  completed_checkpoint = client->completed();
  std::printf("%-58s served %4lld reqs, %3lld timeouts, %zu workers, manager %s\n", phase,
              static_cast<long long>(done), static_cast<long long>(client->timeouts()),
              service->system()->live_workers().size(),
              service->system()->manager() != nullptr ? "up" : "DOWN");
}

void Run() {
  Logger::Get().set_min_level(LogLevel::kWarning);

  TranSendOptions options = DefaultTranSendOptions();
  options.universe.url_count = 60;
  options.logic.cache_distilled = false;  // Keep distillers load-bearing.
  options.topology.worker_pool_nodes = 6;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  // Warm the cache so origin fetches don't dominate the narration.
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    TraceRecord record;
    record.user_id = "warm";
    record.url = service.universe()->UrlAt(i);
    client->SendRequest(record);
    service.sim()->RunFor(Milliseconds(150));
  }
  service.sim()->RunFor(Seconds(130));
  client->ResetStats();
  completed_checkpoint = 0;

  client->StartConstantRate(20, UniformUrls(service.universe(), 0xFA, "steady"));

  std::printf("steady load: 20 req/s of ~10 KB cached JPEGs, re-distilled per request\n\n");
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[baseline: 20 s of steady state]");

  // 1. Kill a distiller.
  auto workers = service.system()->live_workers(kJpegDistillerType);
  if (!workers.empty()) {
    service.system()->cluster()->Crash(workers[0]->pid());
  }
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[killed a distiller -> retry + respawn]");

  // 2. Kill the manager.
  service.system()->cluster()->Crash(service.system()->manager_pid());
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[killed the manager -> stale hints; FE restarts it]");

  // 3. Kill the front end.
  FrontEndProcess* fe = service.system()->front_end(0);
  if (fe != nullptr) {
    service.system()->cluster()->Crash(fe->pid());
  }
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[killed the front end -> manager restarts it]");

  // 4. Kill a cache node: BASE data is regenerable.
  auto caches = service.system()->cache_node_processes();
  if (!caches.empty()) {
    service.system()->cluster()->Crash(caches[0]->pid());
  }
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[killed a cache node -> data regenerated on demand]");

  // 5. Power-fail a whole worker node.
  workers = service.system()->live_workers(kJpegDistillerType);
  if (!workers.empty()) {
    service.system()->cluster()->CrashNode(workers[0]->node());
  }
  service.sim()->RunFor(Seconds(20));
  Report(&service, client, "[power-failed a worker node -> respawned elsewhere]");

  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  std::printf("\nthrough five injected failures: %lld/%lld requests answered (%.2f%%), "
              "%lld hard errors\n",
              static_cast<long long>(client->completed()),
              static_cast<long long>(client->completed() + client->timeouts()), 100 * answered,
              static_cast<long long>(client->errors()));
  std::printf("total restarts performed by the process-peer web: %lld spawns\n",
              static_cast<long long>(service.system()->cluster()->total_spawns()));
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

// Fault-masking property tests: the paper's availability claims under sustained
// random crashes, SAN partitions, node failures, and burst-driven overflow growth.

#include <gtest/gtest.h>

#include "src/cluster/failure_injector.h"
#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

TranSendOptions FaultOptions() {
  // Every request re-distills, so the worker pool stays load-bearing throughout
  // the fault storm (cached variants would mask the workers entirely).
  TranSendOptions options = RedistillOptions(60);
  options.topology.worker_pool_nodes = 8;
  return options;
}

void WarmUp(TranSendService* service, PlaybackEngine* client) {
  service->sim()->RunFor(Seconds(3));
  for (int64_t i = 0; i < service->universe()->url_count(); ++i) {
    TraceRecord record;
    record.user_id = "warm";
    record.url = service->universe()->UrlAt(i);
    client->SendRequest(record);
    service->sim()->RunFor(Milliseconds(150));
  }
  service->sim()->RunFor(Seconds(130));
  client->ResetStats();
}

// Property: under a sustained storm of random worker crashes, the service stays
// available — every request gets SOME answer (distilled or approximate), and the
// vast majority succeed.
class CrashStormSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashStormSweep, ServiceSurvivesRandomWorkerCrashes) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(FaultOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(GetParam());
  WarmUp(&service, client);

  client->StartConstantRate(25, UniformUrls(service.universe(), GetParam(), "storm"));

  // Crash a random live worker roughly every 8 seconds for 2 minutes.
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  Rng crash_rng(GetParam() ^ 0xDEAD);
  auto* system = service.system();
  injector.RandomProcessCrashes(
      &crash_rng, Seconds(8), service.sim()->now() + Seconds(120), [system, &crash_rng]() {
        auto workers = system->live_workers();
        if (workers.empty()) {
          return kInvalidProcess;
        }
        auto index = static_cast<size_t>(
            crash_rng.UniformInt(0, static_cast<int64_t>(workers.size()) - 1));
        return workers[index]->pid();
      });

  service.sim()->RunFor(Seconds(140));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  EXPECT_GT(injector.injected_count(), 5);
  EXPECT_GT(client->completed(), 0);
  // Availability: nearly every request answered, none erroneously.
  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  EXPECT_GT(answered, 0.99);
  EXPECT_EQ(client->errors(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStormSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(FaultTest, SanPartitionLosesWorkersThenHeals) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(FaultOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xF00);
  WarmUp(&service, client);

  client->StartConstantRate(20, UniformUrls(service.universe(), 0xF00, "part"));
  service.sim()->RunFor(Seconds(20));
  auto workers_before = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers_before.empty());

  // Partition every current distiller's node away for 20 s. The manager's TTL
  // declares them dead; spawning replaces them on visible nodes (§2.2.4: "workers
  // lost because of a SAN partition can be restarted on still-visible nodes").
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  std::vector<NodeId> lost;
  for (WorkerProcess* worker : workers_before) {
    lost.push_back(worker->node());
  }
  SimTime now = service.sim()->now();
  injector.PartitionAt(now + Seconds(1), lost, now + Seconds(21));

  service.sim()->RunFor(Seconds(60));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  // Replacements were spawned on still-visible nodes during the partition.
  EXPECT_GT(service.system()->manager()->spawns_initiated(), 1);
  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  EXPECT_GT(answered, 0.97);
}

TEST(FaultTest, WholeNodeCrashMaskedByRespawn) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(FaultOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xAA);
  WarmUp(&service, client);

  client->StartConstantRate(20, UniformUrls(service.universe(), 0xAA, "node"));
  service.sim()->RunFor(Seconds(15));
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  service.system()->cluster()->CrashNode(workers[0]->node());

  service.sim()->RunFor(Seconds(45));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));
  EXPECT_FALSE(service.system()->live_workers(kJpegDistillerType).empty());
  EXPECT_EQ(client->errors(), 0);
}

TEST(FaultTest, BurstRecruitsOverflowPoolAndReapsAfterwards) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = FaultOptions();
  options.logic.cache_distilled = false;   // Sustained distillation load.
  options.topology.worker_pool_nodes = 2;  // Dedicated pool saturates quickly.
  options.topology.overflow_nodes = 4;
  options.sns.reap_idle_time = Seconds(15);
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xB00);
  WarmUp(&service, client);

  // Burst beyond 2 nodes' capacity.
  client->StartConstantRate(65, UniformUrls(service.universe(), 0xB00, "burst"));
  service.sim()->RunFor(Seconds(90));

  // The burst forced workers onto overflow nodes.
  int on_overflow = 0;
  for (WorkerProcess* worker : service.system()->live_workers()) {
    if (service.system()->cluster()->IsOverflowNode(worker->node())) {
      ++on_overflow;
    }
  }
  EXPECT_GT(on_overflow, 0);

  // Burst subsides: overflow workers are reaped ("the distillers may be reaped").
  client->SetRate(2);
  service.sim()->RunFor(Seconds(120));
  int on_overflow_after = 0;
  for (WorkerProcess* worker : service.system()->live_workers()) {
    if (service.system()->cluster()->IsOverflowNode(worker->node())) {
      ++on_overflow_after;
    }
  }
  EXPECT_LT(on_overflow_after, on_overflow);
  EXPECT_GT(service.system()->manager()->reaps_initiated(), 0);
  client->StopLoad();
}

TEST(FaultTest, SimultaneousManagerAndWorkerFailure) {
  // "Robin Hood / Friar Tuck" style: kill the manager and a worker at once; the
  // process-peer web restarts everything.
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(FaultOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xCC);
  WarmUp(&service, client);

  client->StartConstantRate(15, UniformUrls(service.universe(), 0xCC, "dual"));
  service.sim()->RunFor(Seconds(10));

  auto workers = service.system()->live_workers();
  ASSERT_FALSE(workers.empty());
  service.system()->cluster()->Crash(workers[0]->pid());
  service.system()->cluster()->Crash(service.system()->manager_pid());

  service.sim()->RunFor(Seconds(60));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  ASSERT_NE(service.system()->manager(), nullptr);
  EXPECT_GT(service.system()->manager()->beacons_sent(), 0);
  EXPECT_FALSE(service.system()->live_workers().empty());
  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  EXPECT_GT(answered, 0.95);
}

}  // namespace
}  // namespace sns

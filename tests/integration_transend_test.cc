// End-to-end integration tests of the TranSend service on the simulated cluster:
// request flow, caching, demand spawning, fault masking, and BASE fallbacks.

#include <gtest/gtest.h>

#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

TranSendOptions SmallOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 6;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 200;
  return options;
}

TEST(TranSendIntegration, ServesASingleRequestEndToEnd) {
  TranSendService service(SmallOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  ASSERT_NE(client, nullptr);

  // Let beacons flow and the system settle.
  service.sim()->RunFor(Seconds(3));

  TraceRecord record;
  record.user_id = "user1";
  record.url = service.universe()->UrlAt(0);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));  // Worst-case origin fetch is 100 s.

  EXPECT_EQ(client->sent(), 1);
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
  EXPECT_GT(client->bytes_received(), 0);
}

TEST(TranSendIntegration, SpawnsWorkerOnDemandAndDistills) {
  TranSendOptions options = SmallOptions();
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  // No workers run until load arrives (§4.6: "On-demand spawning of the first
  // distiller was observed as soon as load was offered").
  EXPECT_TRUE(service.system()->live_workers().empty());

  // Find a JPEG URL comfortably above the 1 KB threshold.
  std::string url;
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    std::string candidate = service.universe()->UrlAt(i);
    if (service.universe()->MimeOf(candidate) == MimeType::kJpeg &&
        service.universe()->ModeledSize(candidate) > 4096) {
      url = candidate;
      break;
    }
  }
  ASSERT_FALSE(url.empty());

  TraceRecord record;
  record.user_id = "user2";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));

  ASSERT_EQ(client->completed(), 1);
  EXPECT_FALSE(service.system()->live_workers(kJpegDistillerType).empty());
  auto sources = client->responses_by_source();
  EXPECT_EQ(sources["distilled"], 1) << "response should be the distilled variant";
  // Distillation shrinks the content substantially.
  EXPECT_LT(client->bytes_received(), service.universe()->ModeledSize(url));
}

TEST(TranSendIntegration, SecondRequestHitsDistilledCache) {
  TranSendService service(SmallOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  std::string url;
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    std::string candidate = service.universe()->UrlAt(i);
    if (service.universe()->MimeOf(candidate) == MimeType::kGif &&
        service.universe()->ModeledSize(candidate) > 4096) {
      url = candidate;
      break;
    }
  }
  ASSERT_FALSE(url.empty());

  TraceRecord record;
  record.user_id = "user3";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  client->SendRequest(record);
  service.sim()->RunFor(Seconds(10));
  ASSERT_EQ(client->completed(), 2);
  // The repeat is served from the virtual cache, quickly.
  EXPECT_LT(client->latency_stats().min(), 0.5);
}

TEST(TranSendIntegration, MasksWorkerCrashWithRetry) {
  TranSendService service(SmallOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  std::string url;
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    std::string candidate = service.universe()->UrlAt(i);
    if (service.universe()->MimeOf(candidate) == MimeType::kJpeg &&
        service.universe()->ModeledSize(candidate) > 4096) {
      url = candidate;
      break;
    }
  }
  ASSERT_FALSE(url.empty());

  // Warm up: spawn the distiller.
  TraceRecord record;
  record.user_id = "user4";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  // Kill the distiller; the next request must still complete (retry path spawns a
  // replacement or serves the approximate answer).
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  service.system()->cluster()->Crash(workers[0]->pid());

  TraceRecord record2 = record;
  record2.url = url + "?v=2";  // Different URL: same distiller class, fresh cache key.
  client->SendRequest(record2);
  service.sim()->RunFor(Seconds(140));
  EXPECT_EQ(client->completed(), 2);
  EXPECT_EQ(client->timeouts(), 0);
}

TEST(TranSendIntegration, PoisonInputCrashesWorkerButServiceSurvives) {
  TranSendService service(SmallOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  std::string url;
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    std::string candidate = service.universe()->UrlAt(i);
    if (service.universe()->MimeOf(candidate) == MimeType::kJpeg &&
        service.universe()->ModeledSize(candidate) > 4096) {
      url = candidate;
      break;
    }
  }
  ASSERT_FALSE(url.empty());

  TraceRecord record;
  record.user_id = "user5";
  record.url = url;
  client->SendRequest(record, {{"__poison", "1"}});
  service.sim()->RunFor(Seconds(200));

  // The pathological input crashed distillers, but the user still got an answer —
  // in the worst case the original content (approximate answer).
  EXPECT_EQ(client->completed(), 1);
  EXPECT_GE(service.system()->cluster()->total_crashes(), 1);
}

TEST(TranSendIntegration, ManagerCrashIsMaskedAndRestartedByFrontEnd) {
  TranSendService service(SmallOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  ProcessId old_manager = service.system()->manager_pid();
  service.system()->cluster()->Crash(old_manager);

  // The front end's watchdog should notice beacon silence and restart the manager.
  service.sim()->RunFor(Seconds(15));
  ASSERT_NE(service.system()->manager(), nullptr);
  EXPECT_NE(service.system()->manager_pid(), old_manager);

  // And the system still serves requests afterwards.
  TraceRecord record;
  record.user_id = "user6";
  record.url = service.universe()->UrlAt(1);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  EXPECT_EQ(client->completed(), 1);
}

TEST(TranSendIntegration, FrontEndCrashIsRestartedByManager) {
  TranSendService service(SmallOptions());
  service.Start();
  service.sim()->RunFor(Seconds(3));

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  ProcessId old_pid = fe->pid();
  service.system()->cluster()->Crash(old_pid);

  // Manager's FE lease (kFrontEndTtl) expires and it relaunches the FE.
  service.sim()->RunFor(Seconds(12));
  FrontEndProcess* restarted = service.system()->front_end(0);
  ASSERT_NE(restarted, nullptr);
  EXPECT_NE(restarted->pid(), old_pid);
}

}  // namespace
}  // namespace sns

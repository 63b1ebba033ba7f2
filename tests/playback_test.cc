// Tests for the trace playback engine and the origin server.

#include <gtest/gtest.h>

#include "src/cluster/failure_injector.h"
#include "src/services/transend/transend.h"
#include "src/util/logging.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {
namespace {

TranSendOptions TinyOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 3;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 60;
  return options;
}

TEST(PlaybackTest, ConstantRateIssuesAtConfiguredRate) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  TraceRecord record;
  record.user_id = "r";
  record.url = service.universe()->UrlAt(0);
  client->StartConstantRate(10, [&record] { return record; });
  service.sim()->RunFor(Seconds(20));
  client->StopLoad();
  EXPECT_NEAR(static_cast<double>(client->sent()), 200.0, 3.0);
}

TEST(PlaybackTest, RateIsDynamicallyTunable) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  TraceRecord record;
  record.user_id = "r";
  record.url = service.universe()->UrlAt(0);
  client->StartConstantRate(5, [&record] { return record; });
  service.sim()->RunFor(Seconds(10));
  int64_t at_five = client->sent();
  client->SetRate(50);
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  int64_t at_fifty = client->sent() - at_five;
  EXPECT_NEAR(static_cast<double>(at_five), 50.0, 3.0);
  EXPECT_NEAR(static_cast<double>(at_fifty), 500.0, 10.0);
}

TEST(PlaybackTest, TracePlaybackHonorsTimestamps) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  // Three records spaced 5 s apart.
  std::vector<TraceRecord> records;
  for (int i = 0; i < 3; ++i) {
    TraceRecord record;
    record.time = Seconds(5) * i;
    record.user_id = "t";
    record.url = service.universe()->UrlAt(i);
    records.push_back(record);
  }
  SimTime start = service.sim()->now();
  client->PlayTrace(records, Seconds(1));
  service.sim()->RunUntil(start + Milliseconds(1500.0));
  EXPECT_EQ(client->sent(), 1);
  service.sim()->RunUntil(start + Seconds(6) + Milliseconds(500.0));
  EXPECT_EQ(client->sent(), 2);
  service.sim()->RunUntil(start + Seconds(11) + Milliseconds(500.0));
  EXPECT_EQ(client->sent(), 3);
}

TEST(PlaybackTest, ClientSideBalancingMasksFrontEndDeath) {
  // §3.1.2: client-side selection "balances load across multiple front ends and
  // masks transient front end failures".
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.topology.front_ends = 2;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  // Warm one URL so requests are fast.
  TraceRecord record;
  record.user_id = "b";
  record.url = service.universe()->UrlAt(0);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(130));
  client->ResetStats();

  client->StartConstantRate(10, [&record] { return record; });
  service.sim()->RunFor(Seconds(5));
  // Kill FE 0; the live-FE callback immediately stops routing to it.
  FrontEndProcess* fe0 = service.system()->front_end(0);
  ASSERT_NE(fe0, nullptr);
  service.system()->cluster()->Crash(fe0->pid());
  service.sim()->RunFor(Seconds(20));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  // A handful of in-flight requests may be lost with the FE; everything routed
  // after the failure succeeds via FE 1 (and FE 0 is eventually restarted).
  EXPECT_GT(client->completed(), 200);
  EXPECT_LT(client->timeouts() + client->send_failures(), 15);
}

TEST(PlaybackTest, StopLoadCancelsPendingTicks) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));
  TraceRecord record;
  record.user_id = "s";
  record.url = service.universe()->UrlAt(0);
  client->StartConstantRate(10, [&record] { return record; });
  service.sim()->RunFor(Seconds(5));
  client->StopLoad();
  int64_t sent = client->sent();
  service.sim()->RunFor(Seconds(30));
  EXPECT_EQ(client->sent(), sent);
}

// ---------- origin server ---------------------------------------------------------------

TEST(OriginTest, LatencyClampedToPaperRange) {
  OriginConfig config;
  Rng rng(0x0121);
  for (int i = 0; i < 10000; ++i) {
    double latency_s = rng.LogNormal(config.latency_mu, config.latency_sigma);
    SimDuration clamped =
        std::clamp(Seconds(latency_s), config.min_latency, config.max_latency);
    EXPECT_GE(clamped, Milliseconds(100.0));
    EXPECT_LE(clamped, Seconds(100));
  }
}

TEST(OriginTest, BlackholedFetchesTimeOutAtTheFrontEnd) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  // Every server unreachable: the origin's node is cut off from the rest of
  // the SAN, and nothing tells the FE, so its fetch can only time out. The
  // request's deadline caps that timeout.
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  injector.PartitionAt(service.sim()->now(), {service.system()->origin_node()}, kTimeNever);
  PlaybackConfig config;
  config.request_deadline = Seconds(5);
  PlaybackEngine* client = service.AddPlaybackEngine(std::move(config));
  service.sim()->RunFor(Seconds(2));

  TraceRecord record;
  record.user_id = "bh";
  record.url = service.universe()->UrlAt(0);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(20));
  // The FE's fetch timeout fires and the client gets an error response — the
  // system never hangs on a dead origin.
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 1);
}

}  // namespace
}  // namespace sns

// Tests for the SNS wire-message helpers and determinism of the whole stack.

#include <gtest/gtest.h>

#include "src/services/transend/transend.h"
#include "src/sns/messages.h"
#include "src/util/logging.h"

namespace sns {
namespace {

// ---------- names -----------------------------------------------------------------

TEST(MessageNamesTest, ComponentKindNamesAreDistinct) {
  std::set<std::string> names;
  for (ComponentKind kind :
       {ComponentKind::kManager, ComponentKind::kFrontEnd, ComponentKind::kWorker,
        ComponentKind::kCacheNode, ComponentKind::kProfileDb, ComponentKind::kMonitor,
        ComponentKind::kOrigin, ComponentKind::kClient}) {
    names.insert(ComponentKindName(kind));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(MessageNamesTest, ResponseSourceNamesAreDistinct) {
  std::set<std::string> names;
  for (ResponseSource source :
       {ResponseSource::kDistilled, ResponseSource::kCacheOriginal,
        ResponseSource::kCacheApproximate, ResponseSource::kPassThrough,
        ResponseSource::kError}) {
    names.insert(ResponseSourceName(source));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(EndpointTest, ValidityEqualityAndHash) {
  Endpoint a{1, 2};
  Endpoint b{1, 2};
  Endpoint c{1, 3};
  Endpoint invalid;
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EndpointHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
  EXPECT_EQ(a.ToString(), "n1:p2");
}

// ---------- wire sizes -----------------------------------------------------------------
// Serialization delays depend on these; the invariant that matters is that payload
// bytes dominate for content-carrying messages and headers stay small.

TEST(WireSizeTest, ContentBytesDominate) {
  auto content = Content::Make("u", MimeType::kJpeg, std::vector<uint8_t>(10000, 1));

  TaskRequestPayload task;
  task.inputs.push_back(content);
  EXPECT_GE(WireSizeOf(task), 10000);
  EXPECT_LE(WireSizeOf(task), 10000 + 512);

  TaskResponsePayload response;
  response.output = content;
  EXPECT_GE(WireSizeOf(response), 10000);

  CachePutPayload put;
  put.key = "k";
  put.content = content;
  EXPECT_GE(WireSizeOf(put), 10000);

  ClientResponsePayload client_response;
  client_response.content = content;
  EXPECT_GE(WireSizeOf(client_response), 10000);
}

TEST(WireSizeTest, ProfileAndArgsAreCounted) {
  TaskRequestPayload task;
  task.inputs.push_back(Content::Make("u", MimeType::kHtml, {}));
  int64_t base = WireSizeOf(task);
  task.profile.Set("keywords", std::string(500, 'k'));
  task.args["x"] = std::string(300, 'a');
  EXPECT_GE(WireSizeOf(task), base + 800);
}

TEST(WireSizeTest, BeaconGrowsWithHintTable) {
  ManagerBeaconPayload beacon;
  int64_t empty = WireSizeOf(beacon);
  for (int i = 0; i < 900; ++i) {
    WorkerHint hint;
    hint.endpoint = Endpoint{i, i};
    hint.worker_type = "distill-jpeg";
    beacon.workers.push_back(hint);
  }
  // §4.6: with 900 distillers the beacon is a substantial but bounded packet.
  EXPECT_GT(WireSizeOf(beacon), empty + 900 * 20);
  EXPECT_LT(WireSizeOf(beacon), 100000);
}

// ---------- whole-stack determinism ---------------------------------------------------
// The README's reproducibility claim: identical configuration and seeds produce
// bit-identical results, even through spawning, retries and lottery scheduling.

TEST(DeterminismTest, IdenticalRunsProduceIdenticalStats) {
  auto run_once = [] {
    Logger::Get().set_min_level(LogLevel::kNone);
    TranSendOptions options = DefaultTranSendOptions();
    options.universe.url_count = 60;
    options.logic.cache_distilled = false;
    options.topology.worker_pool_nodes = 4;
    TranSendService service(options);
    service.Start();
    PlaybackEngine* client = service.AddPlaybackEngine(0xD37);
    service.sim()->RunFor(Seconds(2));
    client->StartConstantRate(15, UniformUrls(service.universe(), 0xD37, "det"));
    service.sim()->RunFor(Seconds(60));
    client->StopLoad();
    service.sim()->RunFor(Seconds(5));
    struct Result {
      int64_t sent;
      int64_t completed;
      int64_t bytes;
      double mean_latency;
      uint64_t events;
    };
    return Result{client->sent(), client->completed(), client->bytes_received(),
                  client->latency_stats().mean(), service.sim()->executed_events()};
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace sns

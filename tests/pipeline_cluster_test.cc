// Integration tests of TACC pipeline composition ACROSS cluster workers: each stage
// is dispatched to a (possibly different) worker chosen by the manager stub, with
// the SNS layer's retries masking mid-pipeline failures — the paper's Unix-pipe
// analogy made distributed (§2.3).

#include <gtest/gtest.h>

#include <set>

#include "src/services/extras/keyword_filter.h"
#include "src/services/extras/palm_transform.h"
#include "src/services/transend/distillers.h"
#include "src/sns/system.h"
#include "src/util/logging.h"
#include "src/workload/content_universe.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {
namespace {

// FE logic that runs a fixed three-stage pipeline over fetched pages.
class PipelineLogic : public FrontEndLogic {
 public:
  void HandleRequest(RequestContext* ctx) override {
    ctx->GetProfile([](RequestContext* c, bool, const UserProfile& profile) {
      c->SetProfile(profile);
      c->Fetch(c->request().url, [](RequestContext* c2, Status status, ContentPtr page) {
        if (!status.ok()) {
          c2->Respond(status, nullptr, ResponseSource::kError, false);
          return;
        }
        PipelineSpec spec;
        spec.stages.push_back({kHtmlDistillerType, {}});
        spec.stages.push_back({kKeywordFilterType, {{kArgKeywords, "lorem"}}});
        spec.stages.push_back({kPalmTransformType, {{kArgColumns, "30"}}});
        c2->CallPipeline(spec, {page},
                         [](RequestContext* c3, Status st, ContentPtr out) {
                           if (!st.ok()) {
                             c3->Respond(st, nullptr, ResponseSource::kError, false);
                             return;
                           }
                           c3->Respond(Status::Ok(), out, ResponseSource::kDistilled, false);
                         });
      });
    });
  }
};

struct PipelineFixture {
  PipelineFixture() {
    Logger::Get().set_min_level(LogLevel::kNone);
    SnsConfig config;
    SystemTopology topology;
    topology.worker_pool_nodes = 5;
    topology.cache_nodes = 1;
    topology.with_origin = true;
    system = std::make_unique<SnsSystem>(config, topology);
    system->registry()->Register(kHtmlDistillerType,
                                 [] { return std::make_unique<HtmlDistiller>(); });
    system->registry()->Register(kKeywordFilterType,
                                 [] { return std::make_unique<KeywordFilterWorker>(); });
    system->registry()->Register(kPalmTransformType,
                                 [] { return std::make_unique<PalmTransformWorker>(); });
    system->set_logic_factory([](int) { return std::make_shared<PipelineLogic>(); });

    ContentUniverseConfig universe_config;
    universe_config.url_count = 40;
    universe = std::make_unique<ContentUniverse>(universe_config);
    system->set_origin_factory([this] {
      return std::make_unique<OriginServerProcess>(OriginConfig{}, universe.get());
    });
    system->Start();

    NodeConfig client_node;
    client_node.workers_allowed = false;
    NodeId node = system->cluster()->AddNode(client_node);
    PlaybackConfig playback_config;
    playback_config.front_ends = [this](std::vector<Endpoint>* out) {
      system->LiveFrontEndEndpoints(out);
    };
    auto engine = std::make_unique<PlaybackEngine>(playback_config);
    client = engine.get();
    system->cluster()->Spawn(node, std::move(engine));
    system->sim()->RunFor(Seconds(3));
  }

  std::string HtmlUrl() const {
    for (int i = 0; i < 40; ++i) {
      if (universe->MimeOf(universe->UrlAt(i)) == MimeType::kHtml) {
        return universe->UrlAt(i);
      }
    }
    return "";
  }

  std::unique_ptr<SnsSystem> system;
  std::unique_ptr<ContentUniverse> universe;
  PlaybackEngine* client = nullptr;
};

TEST(PipelineClusterTest, ThreeStagePipelineSpansWorkers) {
  PipelineFixture fixture;
  std::string url = fixture.HtmlUrl();
  ASSERT_FALSE(url.empty());

  TraceRecord record;
  record.user_id = "p";
  record.url = url;
  fixture.client->SendRequest(record);
  fixture.system->sim()->RunFor(Seconds(140));

  ASSERT_EQ(fixture.client->completed(), 1);
  EXPECT_EQ(fixture.client->errors(), 0);
  // All three worker classes were spawned on demand, each on its own node.
  EXPECT_EQ(fixture.system->live_workers(kHtmlDistillerType).size(), 1u);
  EXPECT_EQ(fixture.system->live_workers(kKeywordFilterType).size(), 1u);
  EXPECT_EQ(fixture.system->live_workers(kPalmTransformType).size(), 1u);
  std::set<NodeId> nodes;
  for (WorkerProcess* worker : fixture.system->live_workers()) {
    nodes.insert(worker->node());
  }
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_GT(fixture.client->bytes_received(), 0);
}

TEST(PipelineClusterTest, MidPipelineWorkerCrashIsMasked) {
  PipelineFixture fixture;
  std::string url = fixture.HtmlUrl();
  ASSERT_FALSE(url.empty());

  // First request spawns the pipeline workers.
  TraceRecord record;
  record.user_id = "p";
  record.url = url;
  fixture.client->SendRequest(record);
  fixture.system->sim()->RunFor(Seconds(140));
  ASSERT_EQ(fixture.client->completed(), 1);

  // Kill the middle stage's worker, then run a second URL through.
  auto filters = fixture.system->live_workers(kKeywordFilterType);
  ASSERT_FALSE(filters.empty());
  fixture.system->cluster()->Crash(filters[0]->pid());

  TraceRecord second = record;
  second.url = url + "?v=2";
  fixture.client->SendRequest(second);
  fixture.system->sim()->RunFor(Seconds(140));
  EXPECT_EQ(fixture.client->completed(), 2);
  EXPECT_EQ(fixture.client->errors(), 0);
  EXPECT_FALSE(fixture.system->live_workers(kKeywordFilterType).empty());
}

}  // namespace
}  // namespace sns

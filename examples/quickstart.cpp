// Quickstart: author a brand-new scalable network service in ~60 lines of
// service-specific code.
//
// The paper's pitch (§2): the SNS layer is an off-the-shelf platform — scalability,
// load balancing, fault tolerance, caching and customization come for free; a
// service author writes (1) a stateless TACC worker and (2) front-end dispatch
// logic, then composes them. This example builds "shout": a service that fetches a
// page from the (simulated) web and upper-cases it, louder for users whose profile
// says so.
//
// Run:  ./build/examples/quickstart

#include <cctype>
#include <cstdio>

#include "src/sns/system.h"
#include "src/util/logging.h"
#include "src/workload/content_universe.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {
namespace {

// ---- (1) The TACC worker: pure, stateless content transformation. ------------------
class ShoutWorker : public TaccWorker {
 public:
  std::string type() const override { return "shout"; }

  TaccResult Process(const TaccRequest& request) override {
    if (request.inputs.empty() || request.input() == nullptr) {
      return TaccResult::Fail(InvalidArgumentError("shout: no input"));
    }
    // Mass customization: the user's profile rides along automatically (§2.3).
    bool excited = request.profile.GetBoolOr("excited", false);
    std::vector<uint8_t> out = request.input()->bytes;
    for (uint8_t& b : out) {
      b = static_cast<uint8_t>(std::toupper(b));
    }
    if (excited) {
      for (char c : std::string("!!!")) {
        out.push_back(static_cast<uint8_t>(c));
      }
    }
    return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(out)));
  }
};

// ---- (2) The front-end dispatch logic: cache, fetch, transform, respond. ------------
class ShoutLogic : public FrontEndLogic {
 public:
  void HandleRequest(RequestContext* ctx) override {
    ctx->GetProfile([](RequestContext* c, bool, const UserProfile& profile) {
      c->SetProfile(profile);
      std::string key = c->request().url + "|shouted";
      c->CacheGet(key, [key](RequestContext* c2, bool hit, ContentPtr cached) {
        if (hit) {
          c2->Respond(Status::Ok(), cached, ResponseSource::kDistilled, true);
          return;
        }
        c2->Fetch(c2->request().url, [key](RequestContext* c3, Status status,
                                           ContentPtr fetched) {
          if (!status.ok()) {
            c3->Respond(status, nullptr, ResponseSource::kError, false);
            return;
          }
          c3->CallWorker("shout", {}, {fetched},
                         [key, fetched](RequestContext* c4, Status st, ContentPtr out) {
                           if (!st.ok()) {
                             // BASE approximate answer: the original, fast.
                             c4->Respond(Status::Ok(), fetched,
                                         ResponseSource::kCacheApproximate, false);
                             return;
                           }
                           c4->CachePut(key, out);
                           c4->Respond(Status::Ok(), out, ResponseSource::kDistilled, false);
                         });
        });
      });
    });
  }
};

void Run() {
  Logger::Get().set_min_level(LogLevel::kWarning);

  // ---- (3) Assemble: registry + logic + topology = a running service. --------------
  SnsConfig config;
  SystemTopology topology;
  topology.worker_pool_nodes = 4;
  topology.cache_nodes = 2;
  topology.with_origin = true;
  SnsSystem system(config, topology);

  system.registry()->Register("shout", [] { return std::make_unique<ShoutWorker>(); });
  system.set_logic_factory([](int) { return std::make_shared<ShoutLogic>(); });

  ContentUniverseConfig universe_config;
  universe_config.url_count = 50;
  ContentUniverse universe(universe_config);
  system.set_origin_factory(
      [&universe] { return std::make_unique<OriginServerProcess>(OriginConfig{}, &universe); });

  UserProfile enthusiast("alice");
  enthusiast.Set("excited", "true");
  system.SeedProfile(enthusiast);

  system.Start();

  // ---- (4) A client. ----------------------------------------------------------------
  NodeConfig client_node;
  client_node.workers_allowed = false;
  NodeId node = system.cluster()->AddNode(client_node);
  PlaybackConfig playback_config;
  playback_config.front_ends = [&system](std::vector<Endpoint>* out) {
    system.LiveFrontEndEndpoints(out);
  };
  auto engine = std::make_unique<PlaybackEngine>(playback_config);
  PlaybackEngine* client = engine.get();
  system.cluster()->Spawn(node, std::move(engine));

  system.sim()->RunFor(Seconds(3));  // Beacons flow; the system self-assembles.

  // Find an HTML page in the universe and request it twice (miss, then cache hit).
  std::string url;
  for (int i = 0; i < 50; ++i) {
    if (universe.MimeOf(universe.UrlAt(i)) == MimeType::kHtml) {
      url = universe.UrlAt(i);
      break;
    }
  }
  std::printf("requesting %s for user 'alice' (profile: excited=true)\n", url.c_str());
  TraceRecord record;
  record.user_id = "alice";
  record.url = url;
  client->SendRequest(record);
  system.sim()->RunFor(Seconds(130));  // Worst-case simulated Internet fetch.
  client->SendRequest(record);
  system.sim()->RunFor(Seconds(5));

  std::printf("\ncompleted: %lld   errors: %lld\n",
              static_cast<long long>(client->completed()),
              static_cast<long long>(client->errors()));
  std::printf("latency:   first (origin fetch + shout) %.2f s, repeat (cache hit) %.3f s\n",
              client->latency_stats().max(), client->latency_stats().min());
  std::printf("a 'shout' worker was spawned on demand: %zu live worker(s)\n",
              system.live_workers("shout").size());
  std::printf("\nNote what the service author did NOT write: spawning, load balancing,\n"
              "beacons, retries, restarts, cache partitioning — all inherited from the\n"
              "SNS layer (paper Section 2.2).\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

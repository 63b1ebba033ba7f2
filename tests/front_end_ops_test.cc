// Characterization tests of the front end's facility ops (§3.1.1, §3.1.8): profile
// reads and writes, cache probes down the replica chain, and origin fetches. A
// scripted FrontEndLogic issues one op per request; each test checks both what
// the caller's callback saw and the outcome of the op's fe.* span in the trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sns/system.h"
#include "src/util/logging.h"
#include "src/workload/content_universe.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {
namespace {

// Runs whatever the test scripted for the next request.
class ScriptedLogic : public FrontEndLogic {
 public:
  void HandleRequest(RequestContext* ctx) override { script(ctx); }
  std::function<void(RequestContext*)> script;
};

// An origin that swallows every fetch: the FE's only way out is its timeout.
class BlackholeOrigin : public Process {
 public:
  BlackholeOrigin() : Process("blackhole-origin") {}
};

// Writes a cache entry straight to one node, bypassing the FE's chain fan-out,
// so a test can place a key on a replica but not on the head.
class CacheSeeder : public Process {
 public:
  CacheSeeder() : Process("cache-seeder") {}
  void PutTo(const Endpoint& dst, const std::string& key, ContentPtr content) {
    auto payload = std::make_shared<CachePutPayload>();
    payload->key = key;
    payload->content = std::move(content);
    Message msg;
    msg.dst = dst;
    msg.type = kMsgCachePut;
    msg.transport = Transport::kReliable;
    msg.size_bytes = WireSizeOf(*payload);
    msg.payload = std::move(payload);
    Send(std::move(msg));
  }
};

enum class Origin { kNone, kUniverse, kBlackhole };

struct OpsFixture {
  OpsFixture(int cache_nodes, int replication, Origin origin = Origin::kNone) {
    Logger::Get().set_min_level(LogLevel::kNone);
    SnsConfig config;
    config.cache_replication = replication;
    config.fetch_timeout = Seconds(3);
    SystemTopology topology;
    topology.worker_pool_nodes = 1;
    topology.cache_nodes = cache_nodes;
    topology.with_origin = origin != Origin::kNone;
    system = std::make_unique<SnsSystem>(config, topology);
    logic = std::make_shared<ScriptedLogic>();
    system->set_logic_factory([this](int) { return logic; });
    if (origin == Origin::kUniverse) {
      ContentUniverseConfig universe_config;
      universe_config.url_count = 10;
      universe = std::make_unique<ContentUniverse>(universe_config);
      system->set_origin_factory([this] {
        return std::make_unique<OriginServerProcess>(OriginConfig{}, universe.get());
      });
    } else if (origin == Origin::kBlackhole) {
      system->set_origin_factory([] { return std::make_unique<BlackholeOrigin>(); });
    }
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
    auto seeder_process = std::make_unique<CacheSeeder>();
    seeder = seeder_process.get();
    system->cluster()->Spawn(node, std::move(seeder_process));
    system->sim()->RunFor(Seconds(3));  // Beacons: the FE learns DB and cache ring.
  }

  FrontEndProcess* fe() const { return system->front_end(0); }

  // Runs `script` as the logic of one request from `user`, lets the cluster
  // settle, and returns the request's trace id.
  uint64_t Run(const std::string& user, std::function<void(RequestContext*)> script,
               SimDuration settle = Seconds(10)) {
    logic->script = std::move(script);
    TraceRecord record;
    record.user_id = user;
    record.url = "http://ops.example.edu/page";
    uint64_t trace_id = client->SendRequest(record);
    system->sim()->RunFor(settle);
    return trace_id;
  }

  // Outcomes of the spans named `operation` in a trace, in start order.
  std::vector<std::string> Outcomes(uint64_t trace_id, std::string_view operation) const {
    std::vector<SpanRecord> spans = system->tracer()->Trace(trace_id);
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord& a, const SpanRecord& b) { return a.start < b.start; });
    std::vector<std::string> outcomes;
    for (const SpanRecord& span : spans) {
      if (span.operation == operation) {
        outcomes.emplace_back(span.outcome);
      }
    }
    return outcomes;
  }

  int64_t Counter(const std::string& name) const {
    return system->metrics()->GetCounter(name)->value();
  }

  CacheNodeProcess* CacheAt(const Endpoint& ep) const {
    for (CacheNodeProcess* cache : system->cache_node_processes()) {
      if (cache->endpoint() == ep) {
        return cache;
      }
    }
    return nullptr;
  }

  std::unique_ptr<SnsSystem> system;
  std::shared_ptr<ScriptedLogic> logic;
  std::unique_ptr<ContentUniverse> universe;
  PlaybackEngine* client = nullptr;
  CacheSeeder* seeder = nullptr;
};

ContentPtr TestContent(const std::string& key) {
  return Content::Make(key, MimeType::kOther, std::vector<uint8_t>(512, 0x5A));
}

void Ok(RequestContext* ctx) {
  ctx->Respond(Status::Ok(), nullptr, ResponseSource::kPassThrough, false);
}

// ---------- Profile read -----------------------------------------------------------

struct ProfileSeen {
  bool called = false;
  bool found = false;
  UserProfile profile;
};

std::function<void(RequestContext*)> GetProfileScript(ProfileSeen* seen) {
  return [seen](RequestContext* ctx) {
    ctx->GetProfile([seen](RequestContext* c, bool found, const UserProfile& profile) {
      seen->called = true;
      seen->found = found;
      seen->profile = profile;
      Ok(c);
    });
  };
}

TEST(FrontEndOpsTest, ProfileReadHitIsOkAndCached) {
  OpsFixture f(1, 1);
  UserProfile stored("alice");
  stored.Set("quality", "low");
  f.system->SeedProfile(stored);
  ProfileSeen seen;
  uint64_t trace = f.Run("alice", GetProfileScript(&seen));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.found);
  EXPECT_EQ(seen.profile.GetOr("quality", ""), "low");
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_get"), std::vector<std::string>{"ok"});
  EXPECT_TRUE(f.fe()->profile_cache().Contains("alice"));
}

TEST(FrontEndOpsTest, ProfileReadMissGivesEmptyProfile) {
  OpsFixture f(1, 1);
  ProfileSeen seen;
  uint64_t trace = f.Run("nobody", GetProfileScript(&seen));
  ASSERT_TRUE(seen.called);
  EXPECT_FALSE(seen.found);
  EXPECT_EQ(seen.profile.user_id(), "nobody");
  EXPECT_EQ(seen.profile.size(), 0u);
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_get"), std::vector<std::string>{"miss"});
  EXPECT_FALSE(f.fe()->profile_cache().Contains("nobody"));
}

TEST(FrontEndOpsTest, ProfileReadTimeoutFallsBackToEmptyProfile) {
  OpsFixture f(1, 1);
  UserProfile stored("bob");
  stored.Set("quality", "high");
  f.system->SeedProfile(stored);
  f.system->cluster()->Crash(f.system->profile_db()->pid());
  ProfileSeen seen;
  uint64_t trace = f.Run("bob", GetProfileScript(&seen));
  ASSERT_TRUE(seen.called);
  // BASE: the request proceeds with an empty profile instead of failing.
  EXPECT_FALSE(seen.found);
  EXPECT_EQ(seen.profile.user_id(), "bob");
  EXPECT_EQ(seen.profile.size(), 0u);
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_get"), std::vector<std::string>{"timeout"});
  EXPECT_EQ(f.client->errors(), 0);
}

// ---------- Profile write ----------------------------------------------------------

struct PutSeen {
  bool called = false;
  Status status;
};

std::function<void(RequestContext*)> PutProfileScript(const std::string& user, PutSeen* seen) {
  return [user, seen](RequestContext* ctx) {
    UserProfile profile(user);
    profile.Set("quality", "medium");
    ctx->PutProfile(profile, [seen](RequestContext* c, Status status) {
      seen->called = true;
      seen->status = status;
      Ok(c);
    });
  };
}

TEST(FrontEndOpsTest, ProfileWriteAckedIsOkAndWrittenThrough) {
  OpsFixture f(1, 1);
  PutSeen seen;
  uint64_t trace = f.Run("carol", PutProfileScript("carol", &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.status.ok()) << seen.status.ToString();
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_put"), std::vector<std::string>{"ok"});
  EXPECT_TRUE(f.fe()->profile_cache().Contains("carol"));
}

TEST(FrontEndOpsTest, ProfileWriteTimeoutIsAnErrorAndNotCached) {
  OpsFixture f(1, 1);
  f.system->cluster()->Crash(f.system->profile_db()->pid());
  PutSeen seen;
  uint64_t trace = f.Run("dave", PutProfileScript("dave", &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_EQ(seen.status.code(), StatusCode::kTimeout) << seen.status.ToString();
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_put"), std::vector<std::string>{"timeout"});
  EXPECT_FALSE(f.fe()->profile_cache().Contains("dave"));
}

TEST(FrontEndOpsTest, ProfileWriteRefusedBySupersededDbIsNotCached) {
  OpsFixture f(1, 1);
  // A newer DB generation holds the store reservation: the running DB must
  // refuse the commit, and the FE must not cache what was never written.
  f.system->profile_reservation()->Claim(f.system->profile_db_generation() + 1);
  PutSeen seen;
  uint64_t trace = f.Run("erin", PutProfileScript("erin", &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_EQ(seen.status.code(), StatusCode::kUnavailable) << seen.status.ToString();
  EXPECT_EQ(f.Outcomes(trace, "fe.profile_put"), std::vector<std::string>{"refused"});
  EXPECT_FALSE(f.fe()->profile_cache().Contains("erin"));
}

// ---------- Cache probe --------------------------------------------------------------

struct CacheSeen {
  bool called = false;
  bool hit = false;
  ContentPtr content;
};

std::function<void(RequestContext*)> CacheGetScript(const std::string& key, CacheSeen* seen) {
  return [key, seen](RequestContext* ctx) {
    ctx->CacheGet(key, [seen](RequestContext* c, bool hit, ContentPtr content) {
      seen->called = true;
      seen->hit = hit;
      seen->content = std::move(content);
      Ok(c);
    });
  };
}

TEST(FrontEndOpsTest, CacheProbeHeadHit) {
  OpsFixture f(2, 2);
  const std::string key = "http://ops.example.edu/head";
  ManagerStub::CacheChain chain = f.fe()->stub().CacheChainForKey(key);
  ASSERT_EQ(chain.size(), 2u);
  f.seeder->PutTo(chain[0], key, TestContent(key));
  f.system->sim()->RunFor(Seconds(1));
  CacheSeen seen;
  uint64_t trace = f.Run("u", CacheGetScript(key, &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.hit);
  ASSERT_NE(seen.content, nullptr);
  EXPECT_EQ(seen.content->url, key);
  EXPECT_EQ(f.Outcomes(trace, "fe.cache_get"), std::vector<std::string>{"hit"});
  EXPECT_EQ(f.Counter("fe.0.cache_failover_reads"), 0);
  EXPECT_EQ(f.Counter("fe.0.read_repairs"), 0);
}

TEST(FrontEndOpsTest, CacheProbeHeadMissReplicaHitRepairsHead) {
  OpsFixture f(2, 2);
  const std::string key = "http://ops.example.edu/replica";
  ManagerStub::CacheChain chain = f.fe()->stub().CacheChainForKey(key);
  ASSERT_EQ(chain.size(), 2u);
  f.seeder->PutTo(chain[1], key, TestContent(key));
  f.system->sim()->RunFor(Seconds(1));
  CacheNodeProcess* head = f.CacheAt(chain[0]);
  ASSERT_NE(head, nullptr);
  ASSERT_FALSE(head->HasKey(key));
  CacheSeen seen;
  uint64_t trace = f.Run("u", CacheGetScript(key, &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.hit);
  ASSERT_NE(seen.content, nullptr);
  EXPECT_EQ(f.Outcomes(trace, "fe.cache_get"), (std::vector<std::string>{"miss", "hit"}));
  EXPECT_EQ(f.Counter("fe.0.cache_failover_reads"), 1);
  EXPECT_EQ(f.Counter("fe.0.read_repairs"), 1);
  // The read-repair put landed on the head, so the next read hits there.
  EXPECT_TRUE(head->HasKey(key));
  CacheSeen again;
  uint64_t trace2 = f.Run("u", CacheGetScript(key, &again));
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(f.Outcomes(trace2, "fe.cache_get"), std::vector<std::string>{"hit"});
}

TEST(FrontEndOpsTest, CacheProbeWholeChainMiss) {
  OpsFixture f(2, 2);
  CacheSeen seen;
  uint64_t trace = f.Run("u", CacheGetScript("http://ops.example.edu/absent", &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_FALSE(seen.hit);
  EXPECT_EQ(seen.content, nullptr);
  EXPECT_EQ(f.Outcomes(trace, "fe.cache_get"), (std::vector<std::string>{"miss", "miss"}));
  EXPECT_EQ(f.Counter("fe.0.cache_failover_reads"), 1);
  EXPECT_EQ(f.Counter("fe.0.read_repairs"), 0);
}

TEST(FrontEndOpsTest, CacheProbeDeadHeadTimesOutThenFailsOver) {
  OpsFixture f(2, 2);
  const std::string key = "http://ops.example.edu/deadhead";
  ManagerStub::CacheChain chain = f.fe()->stub().CacheChainForKey(key);
  ASSERT_EQ(chain.size(), 2u);
  f.seeder->PutTo(chain[1], key, TestContent(key));
  f.system->sim()->RunFor(Seconds(1));
  CacheNodeProcess* head = f.CacheAt(chain[0]);
  ASSERT_NE(head, nullptr);
  // Crash the head in the same instant the request goes out: the FE still
  // routes to it, so only the probe timeout moves the read down the chain.
  f.system->cluster()->Crash(head->pid());
  CacheSeen seen;
  uint64_t trace = f.Run("u", CacheGetScript(key, &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.hit);
  EXPECT_EQ(f.Outcomes(trace, "fe.cache_get"), (std::vector<std::string>{"timeout", "hit"}));
  EXPECT_EQ(f.Counter("fe.0.cache_failover_reads"), 1);
}

TEST(FrontEndOpsTest, CacheMissLeavesNoTimerArmed) {
  // One-node chain: the lone probe misses at the tail. Once its callback runs
  // the op is over, so its timeout must not stay armed for kCacheTimeout.
  OpsFixture f(1, 1);
  Simulator* sim = f.system->sim();
  size_t before_probe = 0;
  size_t at_callback = 0;
  bool hit = true;
  f.Run("u", [&](RequestContext* ctx) {
    before_probe = sim->pending_events();
    ctx->CacheGet("http://ops.example.edu/lone", [&](RequestContext* c, bool h, ContentPtr) {
      hit = h;
      at_callback = sim->pending_events();
      Ok(c);
    });
  });
  EXPECT_FALSE(hit);
  EXPECT_EQ(at_callback, before_probe);
}

// ---------- Origin fetch ---------------------------------------------------------------

struct FetchSeen {
  bool called = false;
  Status status;
  ContentPtr content;
};

std::function<void(RequestContext*)> FetchScript(const std::string& url, FetchSeen* seen) {
  return [url, seen](RequestContext* ctx) {
    ctx->Fetch(url, [seen](RequestContext* c, Status status, ContentPtr content) {
      seen->called = true;
      seen->status = status;
      seen->content = std::move(content);
      Ok(c);
    });
  };
}

TEST(FrontEndOpsTest, FetchOkPassesContentThrough) {
  OpsFixture f(1, 1, Origin::kUniverse);
  std::string url = f.universe->UrlAt(0);
  FetchSeen seen;
  uint64_t trace = f.Run("u", FetchScript(url, &seen), Seconds(30));
  ASSERT_TRUE(seen.called);
  EXPECT_TRUE(seen.status.ok()) << seen.status.ToString();
  ASSERT_NE(seen.content, nullptr);
  EXPECT_EQ(seen.content->url, url);
  EXPECT_EQ(f.Outcomes(trace, "fe.fetch"), std::vector<std::string>{"ok"});
}

TEST(FrontEndOpsTest, FetchFromBlackholedOriginTimesOut) {
  OpsFixture f(1, 1, Origin::kBlackhole);
  FetchSeen seen;
  uint64_t trace = f.Run("u", FetchScript("http://ops.example.edu/void", &seen));
  ASSERT_TRUE(seen.called);
  EXPECT_EQ(seen.status.code(), StatusCode::kTimeout) << seen.status.ToString();
  EXPECT_EQ(seen.content, nullptr);
  EXPECT_EQ(f.Outcomes(trace, "fe.fetch"), std::vector<std::string>{"timeout"});
}

}  // namespace
}  // namespace sns

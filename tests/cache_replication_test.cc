// System-level tests for the R-way replicated cache tier: replica fan-out on
// writes, failover reads down the chain, the background rebalancer restoring
// full replication after a cache-node kill, and the bounded FE profile cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/failure_injector.h"
#include "src/services/transend/transend.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

TranSendOptions ReplicationOptions(int replication) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe.url_count = 40;
  options.sns.cache_replication = replication;
  options.topology.cache_nodes = 4;
  options.topology.worker_pool_nodes = 6;
  return options;
}

void DriveLoad(TranSendService* service, PlaybackEngine* client, double rate,
               SimDuration duration, uint64_t seed) {
  client->StartConstantRate(rate, UniformUrls(service->universe(), seed, "repl"));
  service->sim()->RunFor(duration);
  client->StopLoad();
  service->sim()->RunFor(Seconds(15));  // Drain in-flight requests and puts.
}

// Recomputes the canonical replica chains from the live cache membership and
// asserts the tier converged: consistent views, no orphans, and — since these
// runs never evict — a copy on every chain member.
void ExpectFullReplication(TranSendService* service, int replication) {
  std::vector<CacheNodeProcess*> caches = service->system()->cache_node_processes();
  ASSERT_FALSE(caches.empty());
  ConsistentHashRing canonical(kCacheRingVnodes);
  std::set<std::pair<NodeId, Port>> live;
  for (CacheNodeProcess* cache : caches) {
    canonical.AddMember(CacheRingMemberId(cache->endpoint()));
    live.insert({cache->endpoint().node, cache->endpoint().port});
    EXPECT_EQ(cache->evictions(), 0);
    EXPECT_EQ(cache->rejected(), 0);
    EXPECT_FALSE(cache->rebalance_active());
    std::set<std::pair<NodeId, Port>> view;
    for (const Endpoint& ep : cache->ring_members()) {
      view.insert({ep.node, ep.port});
    }
  }
  for (CacheNodeProcess* cache : caches) {
    std::set<std::pair<NodeId, Port>> view;
    for (const Endpoint& ep : cache->ring_members()) {
      view.insert({ep.node, ep.port});
    }
    EXPECT_EQ(view, live) << "cache n" << cache->node() << " membership view stale";
  }
  size_t r = static_cast<size_t>(replication);
  int audited = 0;
  for (CacheNodeProcess* cache : caches) {
    int64_t self = CacheRingMemberId(cache->endpoint());
    for (const std::string& key : cache->CacheKeys()) {
      ConsistentHashRing::Chain chain = canonical.LookupN(key, r);
      ASSERT_FALSE(chain.empty());
      EXPECT_NE(std::find(chain.begin(), chain.end(), self), chain.end())
          << "cache n" << cache->node() << " holds orphan key " << key;
      for (int64_t member : chain) {
        Endpoint ep = CacheRingMemberEndpoint(member);
        for (CacheNodeProcess* peer : caches) {
          if (peer->endpoint() == ep) {
            EXPECT_TRUE(peer->HasKey(key))
                << "key " << key << " missing from chain member n" << peer->node();
          }
        }
      }
      ++audited;
    }
  }
  EXPECT_GT(audited, 0);
}

TEST(CacheReplicationTest, WritesFanOutToEveryChainMember) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(ReplicationOptions(2));
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x11);
  service.sim()->RunFor(Seconds(5));
  DriveLoad(&service, client, 15, Seconds(30), 0x11);

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  EXPECT_GT(fe->cache_replica_puts(), 0);
  ExpectFullReplication(&service, 2);
}

TEST(CacheReplicationTest, SingleCopyModeStoresExactlyOneReplica) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(ReplicationOptions(1));
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x22);
  service.sim()->RunFor(Seconds(5));
  DriveLoad(&service, client, 15, Seconds(30), 0x22);

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(fe->cache_replica_puts(), 0);
  // R=1 chains are a single member: every key lives on exactly one node.
  std::vector<CacheNodeProcess*> caches = service.system()->cache_node_processes();
  std::set<std::string> seen;
  int total = 0;
  for (CacheNodeProcess* cache : caches) {
    for (const std::string& key : cache->CacheKeys()) {
      EXPECT_TRUE(seen.insert(key).second) << "key " << key << " on two nodes";
      ++total;
    }
  }
  EXPECT_GT(total, 0);
  ExpectFullReplication(&service, 1);
}

TEST(CacheReplicationTest, NodeKillRebalancesSurvivorsBackToFullReplication) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(ReplicationOptions(2));
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x33);
  service.sim()->RunFor(Seconds(5));

  client->StartConstantRate(15, UniformUrls(service.universe(), 0x33, "repl"));
  service.sim()->RunFor(Seconds(30));

  // Kill one cache node under load. With R=2 every entry survives on the other
  // chain member; the survivors' rebalancers re-replicate the lost arcs.
  std::vector<CacheNodeProcess*> before = service.system()->cache_node_processes();
  ASSERT_EQ(before.size(), 4u);
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  injector.CrashProcessAt(service.sim()->now() + Seconds(1), before[1]->pid());
  service.sim()->RunFor(Seconds(40));
  client->StopLoad();
  service.sim()->RunFor(Seconds(20));  // Drain + let rebalance/echo settle.

  EXPECT_EQ(service.system()->cache_node_processes().size(), 3u);
  int64_t pushed = 0;
  for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
    pushed += cache->rebalance_keys_pushed();
  }
  EXPECT_GT(pushed, 0);
  ExpectFullReplication(&service, 2);

  // Availability held: nearly every request answered despite the kill.
  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  EXPECT_GT(answered, 0.95);
  EXPECT_EQ(client->errors(), 0);
}

// Deadline expiry during an active rebalance window: a get that dies of old age
// in flight is dropped by the cache node as `expired_gets` and must not bleed
// into the tier's hit/miss accounting — and neither must the migrated keys
// arriving as rebalance puts. A 12 ms deadline is unreachable by construction:
// the Harvest protocol pays a fresh TCP setup on both the client->FE and
// FE->cache hops, so every probe sent under it expires in flight while the
// survivors' rebalancers are repairing chains underneath the load.
TEST(CacheReplicationTest, DeadlineExpiryDuringRebalanceIsNotCountedAsMiss) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = ReplicationOptions(2);
  // Throttle migration hard so the repair window stretches over seconds of sim
  // time — long enough that deadline-doomed gets provably land inside it.
  options.sns.cache_rebalance_bytes_per_s = 256.0 * 1024;
  options.sns.cache_rebalance_burst_bytes = 32.0 * 1024;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* warm = service.AddPlaybackEngine(0x55);
  service.sim()->RunFor(Seconds(5));
  DriveLoad(&service, warm, 15, Seconds(30), 0x55);  // Warm the tier, then drain.

  auto total_misses = [&service] {
    int64_t total = 0;
    for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
      total += cache->misses();
    }
    return total;
  };
  auto total_expired = [&service] {
    int64_t total = 0;
    for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
      total += service.system()
                   ->metrics()
                   ->GetCounter(StrFormat("cache.n%d.expired_gets", cache->node()))
                   ->value();
    }
    return total;
  };
  auto total_rebalance_puts_in = [&service] {
    int64_t total = 0;
    for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
      total += service.system()
                   ->metrics()
                   ->GetCounter(StrFormat("cache.n%d.rebalance_puts_in", cache->node()))
                   ->value();
    }
    return total;
  };

  // Baseline over the survivors only: the victim's per-process counters vanish
  // with it, and the whole-episode delta below must compare like with like.
  std::vector<CacheNodeProcess*> before = service.system()->cache_node_processes();
  ASSERT_EQ(before.size(), 4u);
  CacheNodeProcess* victim = before[1];
  int64_t misses_before = total_misses() - victim->misses();
  int64_t expired_before = total_expired() -
                           service.system()
                               ->metrics()
                               ->GetCounter(StrFormat("cache.n%d.expired_gets", victim->node()))
                               ->value();
  int64_t puts_in_before = total_rebalance_puts_in();

  // Kill one cache node and simultaneously drive load whose deadline cannot be
  // met, so gets expire while the rebalancers migrate keys underneath them.
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  injector.CrashProcessAt(service.sim()->now() + Seconds(1), victim->pid());

  PlaybackConfig expiring;
  expiring.seed = 0x66;
  expiring.request_timeout = Seconds(5);
  expiring.request_deadline = Milliseconds(12);
  PlaybackEngine* client = service.AddPlaybackEngine(expiring);
  // Warm profile, so the FE reaches the cache probe.
  client->StartConstantRate(30, UniformUrls(service.universe(), 0x66, "repl"));

  // Probe from inside the sim at 1 ms granularity (a pass over a warm 40-URL
  // universe lasts only a few sim-milliseconds) and pin the counters to the
  // first and last instants a survivor reports an active pass, so the
  // expired-vs-miss claim is tied to the rebalance window itself, not just the
  // episode as a whole.
  bool saw_window = false;
  int64_t expired_at_window_start = 0;
  int64_t misses_at_window_start = 0;
  int64_t expired_at_window_end = 0;
  int64_t misses_at_window_end = 0;
  std::function<void()> probe = [&] {
    bool active = false;
    for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
      active = active || cache->rebalance_active();
    }
    if (active) {
      if (!saw_window) {
        saw_window = true;
        expired_at_window_start = total_expired();
        misses_at_window_start = total_misses();
      }
      expired_at_window_end = total_expired();
      misses_at_window_end = total_misses();
    }
    service.sim()->Schedule(Milliseconds(1), probe);
  };
  service.sim()->Schedule(Milliseconds(1), probe);
  service.sim()->RunFor(Seconds(30));
  client->StopLoad();
  service.sim()->RunFor(Seconds(40));  // Drain; let throttled rebalance + echo settle.

  // The episode really contained all three ingredients: a rebalance window,
  // migrated keys landing as rebalance puts, and gets expiring in flight.
  ASSERT_TRUE(saw_window) << "no rebalance pass observed after the cache kill";
  EXPECT_GT(total_rebalance_puts_in(), puts_in_before);
  EXPECT_GT(total_expired(), expired_before);
  EXPECT_GT(expired_at_window_end, expired_at_window_start)
      << "no get expired while a rebalance pass was active";

  // The contract: neither the expired gets nor the migrated keys moved the miss
  // count — inside the window or across the whole episode.
  EXPECT_EQ(misses_at_window_end, misses_at_window_start)
      << "expired/migrated traffic during the rebalance window leaked into misses";
  EXPECT_EQ(total_misses(), misses_before)
      << "the kill + expiry episode changed the tier's miss count";

  // Every request under the unreachable deadline was shed, never served late.
  EXPECT_EQ(client->late_completions(), 0);
  EXPECT_EQ(client->completed() + client->timeouts() + client->send_failures(),
            client->sent());

  // And the tier still converged back to full replication behind it all.
  EXPECT_EQ(service.system()->cache_node_processes().size(), 3u);
  ExpectFullReplication(&service, 2);
}

// Two origin fetches of one URL are distinct ContentPtrs with equal bytes. A
// rebalance put of such a copy is not new to the node, so it must not start an
// anti-entropy echo pass; a put carrying different bytes must.
TEST(CacheReplicationTest, RebalancePutOfEqualBytesIsNotEchoed) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(ReplicationOptions(2));
  service.Start();
  service.sim()->RunFor(Seconds(10));  // Let start-up membership passes finish.
  CacheNodeProcess* cache = service.system()->cache_node_processes().front();
  const std::string passes = StrFormat("cache.n%d.rebalance_passes", cache->node());
  MetricsRegistry* metrics = service.system()->metrics();
  auto put = [&](const std::vector<uint8_t>& bytes, bool rebalance) {
    auto payload = std::make_shared<CachePutPayload>();
    payload->key = "orig:http://site1.example.edu/obj1.dat";
    payload->content = Content::Make("http://site1.example.edu/obj1.dat", MimeType::kOther, bytes);
    payload->rebalance = rebalance;
    Message msg;
    msg.type = kMsgCachePut;
    msg.payload = std::move(payload);
    cache->OnMessage(msg);
    service.sim()->RunFor(Seconds(5));  // Past the echo settle.
  };
  const std::vector<uint8_t> bytes(1000, 7);
  put(bytes, /*rebalance=*/false);
  int64_t before = metrics->CounterValue(passes);
  put(bytes, /*rebalance=*/true);
  EXPECT_EQ(metrics->CounterValue(passes), before);
  put(std::vector<uint8_t>(1000, 8), /*rebalance=*/true);
  EXPECT_EQ(metrics->CounterValue(passes), before + 1);
}

TEST(CacheReplicationTest, FrontEndProfileCacheStaysWithinConfiguredBytes) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(ReplicationOptions(2));
  service.Start();
  // Seed stored profiles: only found profiles populate the FE's read cache.
  // Each is a sixteenth of the cache, so 200 users put it under eviction
  // pressure.
  constexpr int64_t kProfileBytes = kFeProfileCacheBytes / 16;
  for (int i = 0; i < 200; ++i) {
    UserProfile profile(StrFormat("user-%d", i));
    profile.Set("quality", "high");
    std::string theme = StrFormat("theme-%d-", i);
    theme.resize(static_cast<size_t>(kProfileBytes), 'x');
    profile.Set("theme", theme);
    service.system()->SeedProfile(profile);
  }
  PlaybackEngine* client = service.AddPlaybackEngine(0x44);
  service.sim()->RunFor(Seconds(5));

  Rng rng(0x44);
  ContentUniverse* universe = service.universe();
  int user = 0;
  client->StartConstantRate(20, [&rng, universe, &user] {
    TraceRecord record;
    record.user_id = StrFormat("user-%d", user++ % 200);  // Many distinct users.
    record.url = universe->UrlAt(rng.UniformInt(0, universe->url_count() - 1));
    return record;
  });
  service.sim()->RunFor(Seconds(40));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  const auto& cache = fe->profile_cache();
  EXPECT_LE(cache.used_bytes(), kFeProfileCacheBytes);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.evictions(), 0);  // 200 users cannot fit.
  // The gauge surfaces occupancy for the flight recorder.
  Gauge* gauge = service.system()->metrics()->GetGauge("fe.0.profile_cache_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_LE(gauge->value(), static_cast<double>(kFeProfileCacheBytes));
}

}  // namespace
}  // namespace sns

// Tests for the storage substrate: LRU cache, consistent hashing, the WAL-backed
// KV store (ACID), and soft-state tables (BASE).

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/store/consistent_hash.h"
#include "src/store/kvstore.h"
#include "src/store/lru_cache.h"
#include "src/store/soft_state.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// ---------- LRU cache ---------------------------------------------------------

TEST(LruCacheTest, PutGetAndPromotion) {
  LruCache<std::string, int> cache(3);  // Unit-cost entries.
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("c", 3);
  EXPECT_EQ(*cache.Get("a"), 1);  // Promotes "a".
  cache.Put("d", 4);              // Evicts "b" (LRU).
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(LruCacheTest, ByteCapacityAccounting) {
  LruCache<std::string, std::string> cache(
      100, [](const std::string& v) { return static_cast<int64_t>(v.size()); });
  cache.Put("a", std::string(40, 'x'));
  cache.Put("b", std::string(40, 'y'));
  EXPECT_EQ(cache.used_bytes(), 80);
  cache.Put("c", std::string(40, 'z'));  // Evicts "a".
  EXPECT_EQ(cache.used_bytes(), 80);
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
}

TEST(LruCacheTest, OversizedValueIsRejected) {
  LruCache<std::string, std::string> cache(
      10, [](const std::string& v) { return static_cast<int64_t>(v.size()); });
  cache.Put("big", std::string(50, 'x'));
  EXPECT_FALSE(cache.Contains("big"));
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(LruCacheTest, ReplaceUpdatesSize) {
  LruCache<std::string, std::string> cache(
      100, [](const std::string& v) { return static_cast<int64_t>(v.size()); });
  cache.Put("a", std::string(60, 'x'));
  cache.Put("a", std::string(10, 'y'));
  EXPECT_EQ(cache.used_bytes(), 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, HitRateAndCounters) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Get("a");
  cache.Get("missing");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
  cache.ResetCounters();
  EXPECT_EQ(cache.hits(), 0);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", 1);
  cache.Put("b", 2);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(LruCacheTest, OversizedReplacementPreservesExistingEntry) {
  // Regression: Put used to erase the old entry before the over-capacity check,
  // so replacing a key with an oversized value silently destroyed the key.
  LruCache<std::string, std::string> cache(
      20, [](const std::string& v) { return static_cast<int64_t>(v.size()); });
  cache.Put("a", std::string(10, 'x'));
  cache.Put("a", std::string(50, 'y'));  // Over capacity: rejected.
  ASSERT_TRUE(cache.Contains("a"));
  EXPECT_EQ(*cache.Get("a"), std::string(10, 'x'));
  EXPECT_EQ(cache.used_bytes(), 10);
  EXPECT_EQ(cache.rejected(), 1);
}

TEST(LruCacheTest, RejectedCounterAccumulates) {
  LruCache<std::string, std::string> cache(
      10, [](const std::string& v) { return static_cast<int64_t>(v.size()); });
  cache.Put("a", std::string(11, 'x'));
  cache.Put("b", std::string(99, 'y'));
  EXPECT_EQ(cache.rejected(), 2);
  EXPECT_EQ(cache.size(), 0u);
  cache.Put("c", std::string(5, 'z'));  // Fits: not rejected.
  EXPECT_EQ(cache.rejected(), 2);
}

TEST(LruCacheTest, ForEachVisitsAllEntriesWithoutPromotion) {
  LruCache<std::string, int> cache(3);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("c", 3);
  std::map<std::string, int> seen;
  cache.ForEach([&seen](const std::string& k, const int& v, int64_t) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["a"], 1);
  cache.Put("d", 4);  // "a" is still LRU despite ForEach: evicted.
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(cache.hits(), 0);
}

TEST(LruCacheTest, PeekDoesNotPromoteOrCount) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  EXPECT_NE(cache.Peek("a"), nullptr);
  cache.Put("c", 3);  // "a" is still LRU despite Peek: evicted.
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(cache.hits(), 0);
}

// ---------- consistent hashing ------------------------------------------------------

TEST(ConsistentHashTest, LookupStableAcrossCalls) {
  ConsistentHashRing ring;
  ring.AddMember(1);
  ring.AddMember(2);
  ring.AddMember(3);
  for (int i = 0; i < 50; ++i) {
    std::string key = StrFormat("key%d", i);
    EXPECT_EQ(*ring.Lookup(key), *ring.Lookup(key));
  }
}

TEST(ConsistentHashTest, EmptyRingReturnsNullopt) {
  ConsistentHashRing ring;
  EXPECT_FALSE(ring.Lookup("x").has_value());
}

TEST(ConsistentHashTest, BalancesAcrossMembers) {
  ConsistentHashRing ring(128);
  for (int64_t m = 0; m < 4; ++m) {
    ring.AddMember(m);
  }
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    ++counts[*ring.Lookup(StrFormat("url-%d", i))];
  }
  for (const auto& [member, count] : counts) {
    EXPECT_GT(count, 2500) << "member " << member << " underloaded";
    EXPECT_LT(count, 9000) << "member " << member << " overloaded";
  }
}

TEST(ConsistentHashTest, RemovalOnlyRemapsVictimKeys) {
  // Paper §3.1.5: "automatically re-hashing when cache nodes are added or removed"
  // — the point of consistent hashing is that survivors keep their keys.
  ConsistentHashRing ring(128);
  for (int64_t m = 0; m < 4; ++m) {
    ring.AddMember(m);
  }
  std::map<std::string, int64_t> before;
  for (int i = 0; i < 5000; ++i) {
    std::string key = StrFormat("url-%d", i);
    before[key] = *ring.Lookup(key);
  }
  ring.RemoveMember(2);
  int moved = 0;
  for (const auto& [key, owner] : before) {
    int64_t now = *ring.Lookup(key);
    if (owner != 2) {
      EXPECT_EQ(now, owner) << "non-victim key remapped: " << key;
    } else {
      EXPECT_NE(now, 2);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ConsistentHashTest, LookupNReturnsDistinctMembers) {
  ConsistentHashRing ring;
  for (int64_t m = 0; m < 5; ++m) {
    ring.AddMember(m);
  }
  auto chain = ring.LookupN("some-key", 3);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_NE(chain[0], chain[1]);
  EXPECT_NE(chain[1], chain[2]);
  EXPECT_NE(chain[0], chain[2]);
  // Asking for more than exist returns all members once.
  EXPECT_EQ(ring.LookupN("k", 10).size(), 5u);
}

TEST(ConsistentHashTest, VnodePointCollisionsDoNotCorruptRing) {
  // Regression: the ring used to be a map<point, member>, so two vnodes hashing
  // to the same point silently overwrote each other on AddMember — and
  // RemoveMember of the second member then deleted the *survivor's* vnode,
  // leaving the ring missing arcs it should still own. Force every vnode of
  // every member onto colliding points to prove the set-of-pairs ring keeps them
  // all distinct.
  auto collide = [](int64_t /*member*/, int vnode) {
    return static_cast<uint64_t>(vnode);  // Same point for every member.
  };
  ConsistentHashRing ring(8, collide);
  ring.AddMember(1);
  ring.AddMember(2);
  EXPECT_EQ(ring.PointCount(), 16u);  // 8 vnodes each, none clobbered.
  ring.RemoveMember(2);
  EXPECT_EQ(ring.PointCount(), 8u);  // Member 1's colliding vnodes all survive.
  EXPECT_TRUE(ring.HasMember(1));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*ring.Lookup(StrFormat("k%d", i)), 1);
  }
}

TEST(ConsistentHashTest, CollidingPointsBreakTiesDeterministically) {
  auto collide = [](int64_t, int vnode) { return static_cast<uint64_t>(vnode); };
  ConsistentHashRing a(4, collide);
  ConsistentHashRing b(4, collide);
  // Insertion order must not matter: ties on a point break by member id.
  a.AddMember(7);
  a.AddMember(3);
  b.AddMember(3);
  b.AddMember(7);
  for (int i = 0; i < 50; ++i) {
    std::string key = StrFormat("k%d", i);
    EXPECT_EQ(*a.Lookup(key), *b.Lookup(key));
    EXPECT_EQ(a.LookupN(key, 2), b.LookupN(key, 2));
  }
}

// The ring as it was kept before the flat point array: a std::set of
// (point, member) pairs walked clockwise with a wrapping iterator. The flat
// ring must return exactly these chains.
class SetWalkRing {
 public:
  SetWalkRing(int vnodes, ConsistentHashRing::PointHashFn point_hash)
      : vnodes_(vnodes), point_hash_(std::move(point_hash)) {}

  void AddMember(int64_t member) {
    if (members_.insert(member).second) {
      for (int v = 0; v < vnodes_; ++v) ring_.insert({PointHash(member, v), member});
    }
  }
  void RemoveMember(int64_t member) {
    if (members_.erase(member) > 0) {
      for (int v = 0; v < vnodes_; ++v) ring_.erase({PointHash(member, v), member});
    }
  }
  size_t PointCount() const { return ring_.size(); }

  std::vector<int64_t> LookupN(const std::string& key, size_t n) const {
    std::vector<int64_t> out;
    if (ring_.empty() || n == 0) return out;
    auto it = ring_.lower_bound({Fnv1a(key), INT64_MIN});
    for (size_t visited = 0; out.size() < n && visited < ring_.size(); ++visited, ++it) {
      if (it == ring_.end()) it = ring_.begin();
      if (std::find(out.begin(), out.end(), it->second) == out.end()) out.push_back(it->second);
    }
    return out;
  }

 private:
  uint64_t PointHash(int64_t member, int vnode) const {
    if (point_hash_) return point_hash_(member, vnode);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld#%d", static_cast<long long>(member), vnode);
    return Fnv1a(buf, std::char_traits<char>::length(buf));
  }

  int vnodes_;
  ConsistentHashRing::PointHashFn point_hash_;
  std::set<int64_t> members_;
  std::set<std::pair<uint64_t, int64_t>> ring_;
};

// Compares every chain length 0..5 for `keys` keys; returns the mismatch count.
int ChainMismatches(const ConsistentHashRing& flat, const SetWalkRing& walk, int keys) {
  int mismatches = 0;
  for (int i = 0; i < keys; ++i) {
    std::string key = StrFormat("http://example.com/%d.jpg|orig", i);
    size_t n = static_cast<size_t>(i % 6);
    ConsistentHashRing::Chain got = flat.LookupN(key, n);
    std::vector<int64_t> want = walk.LookupN(key, n);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) ++mismatches;
  }
  return mismatches;
}

void ExpectFlatRingMatchesSetWalk(int vnodes, const ConsistentHashRing::PointHashFn& hash) {
  ConsistentHashRing flat = hash ? ConsistentHashRing(vnodes, hash) : ConsistentHashRing(vnodes);
  SetWalkRing walk(vnodes, hash);
  constexpr int kKeys = 10000;
  EXPECT_EQ(ChainMismatches(flat, walk, kKeys), 0) << "empty ring";
  // Joins, a duplicate join, leaves (including an absent member) and rejoins.
  const std::vector<std::pair<bool, int64_t>> steps = {
      {true, 5},  {true, 1},  {true, 9},  {true, 1},  {true, 42}, {false, 9},
      {true, 7},  {false, 3}, {false, 5}, {true, 9},  {true, 13}, {false, 1},
      {false, 42}, {false, 7}, {false, 13}, {false, 9}, {true, 2}};
  for (size_t i = 0; i < steps.size(); ++i) {
    auto [add, member] = steps[i];
    if (add) {
      flat.AddMember(member);
      walk.AddMember(member);
    } else {
      flat.RemoveMember(member);
      walk.RemoveMember(member);
    }
    ASSERT_EQ(flat.PointCount(), walk.PointCount()) << "after step " << i;
    EXPECT_EQ(ChainMismatches(flat, walk, kKeys), 0) << "after step " << i;
  }
}

TEST(ConsistentHashTest, FlatRingChainsMatchSetWalk) {
  ExpectFlatRingMatchesSetWalk(64, nullptr);
}

TEST(ConsistentHashTest, FlatRingChainsMatchSetWalkWithCollidingPoints) {
  // Every member's vnodes land on the same few points, and two vnodes of one
  // member share a point (kept once by both rings).
  ExpectFlatRingMatchesSetWalk(8, [](int64_t member, int vnode) {
    return static_cast<uint64_t>(vnode / 2) * 0x1000000000000000ull + (member % 2);
  });
}

TEST(ConsistentHashTest, ChainsLongerThanTheInlineCapacitySpill) {
  ConsistentHashRing ring(16);
  for (int64_t m = 0; m < 10; ++m) ring.AddMember(m);
  ConsistentHashRing::Chain chain = ring.LookupN("k", 10);
  ASSERT_EQ(chain.size(), 10u);
  std::vector<int64_t> members(chain.begin(), chain.end());
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, ring.Members());
  ConsistentHashRing::Chain head = ring.LookupN("k", ConsistentHashRing::kInlineChain);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), chain.begin()));
}

TEST(ConsistentHashTest, LookupNChainOrderIsDeterministicAcrossRings) {
  ConsistentHashRing a(64);
  ConsistentHashRing b(64);
  for (int64_t m = 0; m < 6; ++m) {
    a.AddMember(m);
  }
  for (int64_t m = 5; m >= 0; --m) {
    b.AddMember(m);  // Reverse insertion order.
  }
  for (int i = 0; i < 200; ++i) {
    std::string key = StrFormat("url-%d", i);
    EXPECT_EQ(a.LookupN(key, 3), b.LookupN(key, 3));
  }
}

TEST(ConsistentHashTest, MembershipChangeRemapsAboutOneNthOfChains) {
  // The replication analogue of RemovalOnlyRemapsVictimKeys: adding or removing
  // one of N nodes should change roughly 1/N of the R=2 replica chains, not
  // reshuffle the world.
  constexpr int kKeys = 4000;
  ConsistentHashRing ring(128);
  for (int64_t m = 0; m < 8; ++m) {
    ring.AddMember(m);
  }
  std::vector<ConsistentHashRing::Chain> before(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    before[i] = ring.LookupN(StrFormat("url-%d", i), 2);
  }

  ring.RemoveMember(3);
  int changed_on_remove = 0;
  for (int i = 0; i < kKeys; ++i) {
    auto now = ring.LookupN(StrFormat("url-%d", i), 2);
    bool was_on_victim =
        std::find(before[i].begin(), before[i].end(), 3) != before[i].end();
    if (now != before[i]) {
      ++changed_on_remove;
      // Only chains that touched the victim's arcs may change.
      EXPECT_TRUE(was_on_victim) << "chain for url-" << i << " changed spuriously";
    } else {
      EXPECT_FALSE(was_on_victim);
    }
  }
  // With R=2 of N=8 members, ~2/8 of chains touch the victim.
  EXPECT_GT(changed_on_remove, kKeys / 8);
  EXPECT_LT(changed_on_remove, kKeys / 2);

  ring.AddMember(3);  // Restore: chains must return to the original assignment.
  int changed_on_add = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (ring.LookupN(StrFormat("url-%d", i), 2) != before[i]) {
      ++changed_on_add;
    }
  }
  EXPECT_EQ(changed_on_add, 0);
}

TEST(ConsistentHashTest, LookupNPrimaryMatchesLookup) {
  ConsistentHashRing ring(64);
  for (int64_t m = 0; m < 5; ++m) {
    ring.AddMember(m);
  }
  for (int i = 0; i < 100; ++i) {
    std::string key = StrFormat("k%d", i);
    EXPECT_EQ(ring.LookupN(key, 3)[0], *ring.Lookup(key));
  }
}

// ---------- KvStore (ACID) ---------------------------------------------------------

TEST(KvStoreTest, PutGetDelete) {
  KvStore store;
  EXPECT_TRUE(store.Put("user1", "profile-data").ok());
  EXPECT_EQ(*store.Get("user1"), "profile-data");
  EXPECT_TRUE(store.Delete("user1").ok());
  EXPECT_FALSE(store.Get("user1").has_value());
}

TEST(KvStoreTest, CrashRecoveryReplaysWal) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("a", "3");
  store.SimulateCrash();
  EXPECT_FALSE(store.Get("a").has_value());  // Volatile state gone.
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 3);
  EXPECT_EQ(*store.Get("a"), "3");
  EXPECT_EQ(*store.Get("b"), "2");
}

TEST(KvStoreTest, MultiKeyCommitIsAtomicOnRecovery) {
  KvStore store;
  store.Commit({{KvStore::Op::Kind::kPut, "x", "1"},
                {KvStore::Op::Kind::kPut, "y", "2"},
                {KvStore::Op::Kind::kDelete, "z", ""}});
  store.SimulateCrash();
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(*store.Get("x"), "1");
  EXPECT_EQ(*store.Get("y"), "2");
}

TEST(KvStoreTest, EmptyCommitRejected) {
  KvStore store;
  EXPECT_EQ(store.Commit({}).code(), StatusCode::kInvalidArgument);
}

TEST(KvStoreTest, TornWriteDiscardedOnRecovery) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  ASSERT_TRUE(store.TearLastRecord().ok());
  store.SimulateCrash();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1);  // Only the intact prefix.
  EXPECT_TRUE(store.Get("a").has_value());
  EXPECT_FALSE(store.Get("b").has_value());
  EXPECT_EQ(store.wal_records(), 1u);  // Truncated.
}

TEST(KvStoreTest, CorruptRecordStopsReplay) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("c", "3");
  ASSERT_TRUE(store.CorruptLogRecord(1).ok());
  store.SimulateCrash();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1);
  EXPECT_TRUE(store.Get("a").has_value());
  EXPECT_FALSE(store.Get("b").has_value());
  EXPECT_FALSE(store.Get("c").has_value());  // After the corruption: discarded.
}

TEST(KvStoreTest, CheckpointCompactsWal) {
  KvStore store;
  for (int i = 0; i < 100; ++i) {
    store.Put("key", StrFormat("v%d", i));
  }
  EXPECT_EQ(store.wal_records(), 100u);
  store.Checkpoint();
  EXPECT_EQ(store.wal_records(), 1u);
  store.SimulateCrash();
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(*store.Get("key"), "v99");
}

TEST(KvStoreTest, WalBytesGrowWithData) {
  KvStore store;
  int64_t empty = store.wal_bytes();
  store.Put("key", std::string(1000, 'x'));
  EXPECT_GT(store.wal_bytes(), empty + 1000);
}

// ---------- Soft-state table (BASE) -----------------------------------------------

TEST(SoftStateTest, RefreshAndExpiry) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("worker1", 7, /*now=*/0);
  EXPECT_EQ(*table.Get("worker1", Seconds(4)), 7);
  EXPECT_FALSE(table.Get("worker1", Seconds(5)).has_value());  // Lease over.
}

TEST(SoftStateTest, TouchRenewsLease) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("w", 1, 0);
  EXPECT_TRUE(table.Touch("w", Seconds(4)));
  EXPECT_TRUE(table.Get("w", Seconds(8)).has_value());
  EXPECT_FALSE(table.Touch("w", Seconds(20)));  // Expired: cannot touch.
}

TEST(SoftStateTest, ExpireInvokesCallbackAndPrunes) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("a", 1, 0);
  table.Refresh("b", 2, Seconds(3));
  std::vector<std::string> expired;
  size_t count = table.Expire(Seconds(6), [&](const std::string& key, const int&) {
    expired.push_back(key);
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(expired, (std::vector<std::string>{"a"}));
  EXPECT_EQ(table.SizeIncludingExpired(), 1u);
}

TEST(SoftStateTest, GetMutableAllowsInPlaceUpdate) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("w", 1, 0);
  int* value = table.GetMutable("w", Seconds(1));
  ASSERT_NE(value, nullptr);
  *value = 42;
  EXPECT_EQ(*table.Get("w", Seconds(2)), 42);
  EXPECT_EQ(table.GetMutable("missing", 0), nullptr);
}

TEST(SoftStateTest, LiveKeysAndForEachSkipExpired) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("live", 1, Seconds(3));
  table.Refresh("dead", 2, 0);
  SimTime now = Seconds(6);
  EXPECT_EQ(table.LiveKeys(now), (std::vector<std::string>{"live"}));
  EXPECT_EQ(table.LiveCount(now), 1u);
  int visited = 0;
  table.ForEach(now, [&](const std::string&, const int&) { ++visited; });
  EXPECT_EQ(visited, 1);
}

TEST(SoftStateTest, EraseRemovesImmediately) {
  SoftStateTable<std::string, int> table(Seconds(5));
  table.Refresh("w", 1, 0);
  EXPECT_TRUE(table.Erase("w"));
  EXPECT_FALSE(table.Erase("w"));
  EXPECT_FALSE(table.Get("w", 0).has_value());
}

}  // namespace
}  // namespace sns

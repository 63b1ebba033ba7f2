// Unit tests for the manager stub: beacon caching, lottery scheduling, queue-delta
// extrapolation, in-flight tracking, dead-worker handling, and liveness detection.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/sns/manager_stub.h"

namespace sns {
namespace {

ManagerBeaconPayload MakeBeacon(Endpoint manager, uint64_t seq,
                                std::vector<std::tuple<Endpoint, std::string, double>> hints) {
  ManagerBeaconPayload beacon;
  beacon.manager = manager;
  beacon.beacon_seq = seq;
  for (auto& [ep, type, queue] : hints) {
    WorkerHint hint;
    hint.endpoint = ep;
    hint.worker_type = type;
    hint.smoothed_queue = queue;
    beacon.workers.push_back(hint);
  }
  return beacon;
}

class ManagerStubTest : public ::testing::Test {
 protected:
  ManagerStubTest() : rng_(7), stub_(SnsConfig{}, &rng_) {}

  Rng rng_;
  ManagerStub stub_;
  Endpoint manager_{0, 1};
  Endpoint w1_{1, 10};
  Endpoint w2_{2, 20};
};

TEST_F(ManagerStubTest, LearnsManagerAndWorkersFromBeacon) {
  EXPECT_FALSE(stub_.ManagerKnown());
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "distill", 1.0}}), Seconds(1));
  EXPECT_TRUE(stub_.ManagerKnown());
  EXPECT_EQ(stub_.manager(), manager_);
  EXPECT_EQ(stub_.KnownWorkerCount("distill"), 1u);
  EXPECT_EQ(stub_.KnownWorkerCount("other"), 0u);
  EXPECT_EQ(stub_.beacons_seen(), 1u);
}

TEST_F(ManagerStubTest, PickWorkerReturnsOnlyMatchingType) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "a", 0.0}, {w2_, "b", 0.0}}), Seconds(1));
  for (int i = 0; i < 20; ++i) {
    auto picked = stub_.PickWorker("a", Seconds(1));
    ASSERT_TRUE(picked.has_value());
    EXPECT_EQ(*picked, w1_);
  }
  EXPECT_FALSE(stub_.PickWorker("ghost", Seconds(1)).has_value());
}

TEST_F(ManagerStubTest, LotteryFavorsShorterQueues) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 9.0}}), Seconds(1));
  int w1_picks = 0;
  for (int i = 0; i < 2000; ++i) {
    if (*stub_.PickWorker("d", Seconds(1)) == w1_) {
      ++w1_picks;
    }
  }
  // Weights 1 vs 0.1: expect ~91% for w1.
  EXPECT_GT(w1_picks, 1600);
  EXPECT_LT(w1_picks, 2000);
}

TEST_F(ManagerStubTest, InflightTrackingShiftsLottery) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 0.0}}), Seconds(1));
  for (int i = 0; i < 30; ++i) {
    stub_.NoteTaskSent(w1_);
  }
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(1)), 30.0, 1e-9);
  int w2_picks = 0;
  for (int i = 0; i < 1000; ++i) {
    if (*stub_.PickWorker("d", Seconds(1)) == w2_) {
      ++w2_picks;
    }
  }
  EXPECT_GT(w2_picks, 900);
  for (int i = 0; i < 30; ++i) {
    stub_.NoteTaskDone(w1_);
  }
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(1)), 0.0, 1e-9);
}

TEST_F(ManagerStubTest, DeltaEstimationExtrapolatesBetweenBeacons) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 2.0}}), Seconds(1));
  stub_.OnBeacon(MakeBeacon(manager_, 2, {{w1_, "d", 6.0}}), Seconds(2));  // +4/s.
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(3)), 10.0, 1e-6);
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(2) + Milliseconds(500.0)), 8.0, 1e-6);
}

TEST_F(ManagerStubTest, DeltaEstimationCanBeDisabled) {
  SnsConfig config;
  config.use_delta_estimation = false;
  config.track_inflight_tasks = false;
  ManagerStub raw(config, &rng_);
  raw.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 2.0}}), Seconds(1));
  raw.OnBeacon(MakeBeacon(manager_, 2, {{w1_, "d", 6.0}}), Seconds(2));
  raw.NoteTaskSent(w1_);
  EXPECT_NEAR(raw.PredictedQueue(w1_, Seconds(3)), 6.0, 1e-9);  // Raw stale hint.
}

TEST_F(ManagerStubTest, WorkerMissingFromOneBeaconSurvivesGraceWindow) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 0.0}}), Seconds(1));
  EXPECT_EQ(stub_.KnownWorkerCount("d"), 2u);
  // One lost beacon datagram must not evict w1: it stays through the grace window.
  stub_.OnBeacon(MakeBeacon(manager_, 2, {{w2_, "d", 0.0}}), Seconds(2));
  EXPECT_EQ(stub_.KnownWorkerCount("d"), 2u);
  EXPECT_EQ(stub_.WorkersOfType("d"), (std::vector<Endpoint>{w1_, w2_}));
  // Sustained absence past the grace window does evict.
  SimTime late = Seconds(1) + kBeaconAbsenceGrace + Seconds(1);
  stub_.OnBeacon(MakeBeacon(manager_, 3, {{w2_, "d", 0.0}}), late);
  EXPECT_EQ(stub_.KnownWorkerCount("d"), 1u);
  EXPECT_EQ(stub_.WorkersOfType("d"), (std::vector<Endpoint>{w2_}));
}

TEST_F(ManagerStubTest, BeaconGapPreservesInflightAccounting) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 0.0}}), Seconds(1));
  stub_.NoteTaskSent(w1_);
  stub_.NoteTaskSent(w1_);
  stub_.NoteTaskSent(w1_);
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(1)), 3.0, 1e-9);
  // w1 absent from the next beacon: its inflight count must not reset to zero,
  // which would skew the lottery toward the worker we already loaded up.
  stub_.OnBeacon(MakeBeacon(manager_, 2, {{w2_, "d", 0.0}}), Seconds(2));
  EXPECT_GE(stub_.PredictedQueue(w1_, Seconds(2)), 3.0);
  // When it reappears, the view (estimator + inflight) carries over seamlessly.
  stub_.OnBeacon(MakeBeacon(manager_, 3, {{w1_, "d", 0.0}, {w2_, "d", 0.0}}), Seconds(3));
  EXPECT_GE(stub_.PredictedQueue(w1_, Seconds(3)), 3.0);
  stub_.NoteTaskDone(w1_);
  stub_.NoteTaskDone(w1_);
  stub_.NoteTaskDone(w1_);
  EXPECT_NEAR(stub_.PredictedQueue(w1_, Seconds(3)), 0.0, 1e-9);
}

TEST_F(ManagerStubTest, PickWorkerExcludesGivenWorkerWhenAlternativesExist) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 0.0}}), Seconds(1));
  for (int i = 0; i < 100; ++i) {
    auto picked = stub_.PickWorker("d", Seconds(1), &w1_);
    ASSERT_TRUE(picked.has_value());
    EXPECT_EQ(*picked, w2_);
  }
}

TEST_F(ManagerStubTest, PickWorkerFallsBackToExcludedWhenItIsTheOnlyOne) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}}), Seconds(1));
  auto picked = stub_.PickWorker("d", Seconds(1), &w1_);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(*picked, w1_);
}

TEST_F(ManagerStubTest, NoteWorkerDeadRemovesLocally) {
  stub_.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}}), Seconds(1));
  EXPECT_TRUE(stub_.NoteWorkerDead(w1_));
  EXPECT_FALSE(stub_.NoteWorkerDead(w1_));
  EXPECT_FALSE(stub_.PickWorker("d", Seconds(1)).has_value());
}

TEST_F(ManagerStubTest, ManagerLivenessTracksBeaconSilence) {
  EXPECT_EQ(stub_.BeaconSilence(Seconds(100)), kTimeNever);
  EXPECT_FALSE(stub_.ManagerSuspectedDead(Seconds(100)));  // Never heard: not dead.
  stub_.OnBeacon(MakeBeacon(manager_, 1, {}), Seconds(100));
  EXPECT_EQ(stub_.BeaconSilence(Seconds(102)), Seconds(2));
  EXPECT_FALSE(stub_.ManagerSuspectedDead(Seconds(102)));
  EXPECT_TRUE(stub_.ManagerSuspectedDead(Seconds(100) + kManagerSilenceRestart +
                                         Seconds(1)));
}

TEST_F(ManagerStubTest, NewManagerIncarnationReplacesOld) {
  stub_.OnBeacon(MakeBeacon(manager_, 5, {{w1_, "d", 1.0}}), Seconds(1));
  Endpoint new_manager{3, 30};
  stub_.OnBeacon(MakeBeacon(new_manager, 1, {{w2_, "d", 0.0}}), Seconds(10));
  EXPECT_EQ(stub_.manager(), new_manager);
  EXPECT_EQ(stub_.WorkersOfType("d"), (std::vector<Endpoint>{w2_}));
}

TEST_F(ManagerStubTest, CacheNodesAndProfileDbComeFromBeacon) {
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  beacon.cache_nodes = {{5, 50}, {4, 40}};
  beacon.profile_db = Endpoint{6, 60};
  stub_.OnBeacon(beacon, Seconds(1));
  ASSERT_EQ(stub_.cache_nodes().size(), 2u);
  // Sorted for deterministic key hashing.
  EXPECT_EQ(stub_.cache_nodes()[0].node, 4);
  EXPECT_EQ(stub_.profile_db(), (Endpoint{6, 60}));
}

TEST_F(ManagerStubTest, CacheRingRemapsBoundedFractionOnLeave) {
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  const int kNodes = 5;
  for (int i = 0; i < kNodes; ++i) {
    beacon.cache_nodes.push_back(Endpoint{10 + i, 100});
  }
  stub_.OnBeacon(beacon, Seconds(1));

  const int kKeys = 2000;
  std::vector<Endpoint> owner_before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    auto owner = stub_.CacheNodeForKey("http://example.com/img" + std::to_string(k));
    ASSERT_TRUE(owner.has_value());
    owner_before[static_cast<size_t>(k)] = *owner;
  }

  // Remove one node; with consistent hashing only ~1/N of keys may change owner
  // (vs ~(N-1)/N under mod-N partitioning), and every remapped key must have
  // belonged to the departed node.
  Endpoint departed = beacon.cache_nodes.back();
  beacon.cache_nodes.pop_back();
  beacon.beacon_seq = 2;
  stub_.OnBeacon(beacon, Seconds(2));

  int remapped = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto owner = stub_.CacheNodeForKey("http://example.com/img" + std::to_string(k));
    ASSERT_TRUE(owner.has_value());
    if (*owner != owner_before[static_cast<size_t>(k)]) {
      ++remapped;
      EXPECT_EQ(owner_before[static_cast<size_t>(k)], departed);
    }
  }
  EXPECT_GT(remapped, 0);
  EXPECT_LE(remapped, 2 * kKeys / kNodes);
  EXPECT_EQ(stub_.cache_membership_changes(), static_cast<uint64_t>(kNodes + 1));
}

TEST_F(ManagerStubTest, CacheRingRemapsBoundedFractionOnJoin) {
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  const int kNodes = 4;
  for (int i = 0; i < kNodes; ++i) {
    beacon.cache_nodes.push_back(Endpoint{10 + i, 100});
  }
  stub_.OnBeacon(beacon, Seconds(1));

  const int kKeys = 2000;
  std::vector<Endpoint> owner_before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    owner_before[static_cast<size_t>(k)] =
        *stub_.CacheNodeForKey("http://example.com/img" + std::to_string(k));
  }

  Endpoint joined{10 + kNodes, 100};
  beacon.cache_nodes.push_back(joined);
  beacon.beacon_seq = 2;
  stub_.OnBeacon(beacon, Seconds(2));

  int remapped = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto owner = *stub_.CacheNodeForKey("http://example.com/img" + std::to_string(k));
    if (owner != owner_before[static_cast<size_t>(k)]) {
      ++remapped;
      EXPECT_EQ(owner, joined);  // Joiners only take keys, never shuffle others.
    }
  }
  EXPECT_GT(remapped, 0);
  EXPECT_LE(remapped, 2 * kKeys / (kNodes + 1));
}

TEST_F(ManagerStubTest, CacheChainForKeyReturnsDistinctReplicasHeadedByPrimary) {
  SnsConfig config;
  config.cache_replication = 3;
  ManagerStub stub(config, &rng_);
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  for (int i = 0; i < 5; ++i) {
    beacon.cache_nodes.push_back(Endpoint{10 + i, 100});
  }
  stub.OnBeacon(beacon, Seconds(1));
  for (int k = 0; k < 200; ++k) {
    std::string key = "http://example.com/img" + std::to_string(k);
    ManagerStub::CacheChain chain = stub.CacheChainForKey(key);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0], *stub.CacheNodeForKey(key));  // chain[0] is the primary.
    for (size_t i = 0; i < chain.size(); ++i) {
      for (size_t j = i + 1; j < chain.size(); ++j) {
        EXPECT_NE(chain[i], chain[j]);
      }
    }
  }
}

TEST_F(ManagerStubTest, CacheChainClampsToMembershipAndHonorsConfig) {
  SnsConfig config;
  config.cache_replication = 3;
  ManagerStub stub(config, &rng_);
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  beacon.cache_nodes = {{10, 100}, {11, 100}};
  stub.OnBeacon(beacon, Seconds(1));
  // Only 2 members live: chains clamp to every member once.
  EXPECT_EQ(stub.CacheChainForKey("k").size(), 2u);

  SnsConfig single;
  single.cache_replication = 1;
  ManagerStub solo(single, &rng_);
  solo.OnBeacon(beacon, Seconds(1));
  ManagerStub::CacheChain chain = solo.CacheChainForKey("k");
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], *solo.CacheNodeForKey("k"));
}

TEST_F(ManagerStubTest, CacheChainsRemapBoundedFractionUnderChurn) {
  SnsConfig config;
  config.cache_replication = 2;
  ManagerStub stub(config, &rng_);
  ManagerBeaconPayload beacon = MakeBeacon(manager_, 1, {});
  const int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) {
    beacon.cache_nodes.push_back(Endpoint{10 + i, 100});
  }
  stub.OnBeacon(beacon, Seconds(1));

  const int kKeys = 2000;
  std::vector<ManagerStub::CacheChain> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[static_cast<size_t>(k)] =
        stub.CacheChainForKey("http://example.com/img" + std::to_string(k));
  }

  Endpoint departed = beacon.cache_nodes.back();
  beacon.cache_nodes.pop_back();
  beacon.beacon_seq = 2;
  stub.OnBeacon(beacon, Seconds(2));

  int changed = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto& old_chain = before[static_cast<size_t>(k)];
    auto now = stub.CacheChainForKey("http://example.com/img" + std::to_string(k));
    ASSERT_EQ(now.size(), 2u);
    if (now != old_chain) {
      ++changed;
      // Only chains that touched the departed node's arcs may change.
      EXPECT_NE(std::find(old_chain.begin(), old_chain.end(), departed),
                old_chain.end())
          << "chain for key " << k << " changed spuriously";
    }
  }
  // R=2 of N=6: ~1/3 of chains touch the departed node.
  EXPECT_GT(changed, kKeys / 6);
  EXPECT_LT(changed, 3 * kKeys / 5);
}

TEST_F(ManagerStubTest, RoundRobinPolicyRotates) {
  SnsConfig config;
  config.balance_policy = BalancePolicy::kRoundRobin;
  ManagerStub rr(config, &rng_);
  rr.OnBeacon(MakeBeacon(manager_, 1, {{w1_, "d", 0.0}, {w2_, "d", 50.0}}), Seconds(1));
  int w1_picks = 0;
  for (int i = 0; i < 100; ++i) {
    if (*rr.PickWorker("d", Seconds(1)) == w1_) {
      ++w1_picks;
    }
  }
  EXPECT_EQ(w1_picks, 50);  // Ignores load entirely.
}

}  // namespace
}  // namespace sns

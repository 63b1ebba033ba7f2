// Quorum membership, fencing, and the durable write-ack contract (DESIGN.md
// §14): two-node quorum-disk tiebreaking at the unit level, the profile DB's
// own quorum write gate, fenced failover and symmetric-partition arbitration at
// the system level, a 20-seed chaos campaign holding the acked-write-durable /
// no-minority-ack invariants, and a profile-DB partition that loses no
// acknowledged write.

#include <gtest/gtest.h>

#include "src/chaos/campaign.h"
#include "src/chaos/invariants.h"
#include "src/cluster/cluster.h"
#include "src/cluster/failure_injector.h"
#include "src/net/san.h"
#include "src/quorum/membership.h"
#include "src/quorum/quorum_disk.h"
#include "src/services/transend/transend.h"
#include "src/sim/simulator.h"
#include "src/sns/profile_db.h"
#include "src/store/kvstore.h"
#include "src/tacc/profile.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// ---------- quorum disk lease semantics -------------------------------------------------

TEST(QuorumDiskTest, LeaseRenewalBlocksRivalsUntilExpiry) {
  KvStore store;
  QuorumDisk disk(&store, Seconds(3));
  EXPECT_FALSE(disk.Owner(0).has_value());

  // Node 1 claims the unowned disk and renews freely.
  EXPECT_TRUE(disk.TryClaim(1, Seconds(0)));
  EXPECT_EQ(disk.Owner(Seconds(1)).value_or(kInvalidNode), 1);
  EXPECT_TRUE(disk.TryClaim(1, Seconds(2)));

  // A rival is refused while the lease is live...
  EXPECT_FALSE(disk.TryClaim(2, Seconds(4)));
  EXPECT_EQ(disk.Owner(Seconds(4)).value_or(kInvalidNode), 1);
  // ...and wins once it expires (last renewal at t=2 + 3s lease = t=5).
  EXPECT_FALSE(disk.Owner(Seconds(5)).has_value());
  EXPECT_TRUE(disk.TryClaim(2, Seconds(6)));
  EXPECT_EQ(disk.Owner(Seconds(7)).value_or(kInvalidNode), 2);
}

TEST(QuorumDiskTest, TornLeaseRecordIsTreatedAsUnowned) {
  KvStore store;
  QuorumDisk disk(&store, Seconds(3));
  ASSERT_TRUE(disk.TryClaim(1, Seconds(0)));
  store.Put("qdisk/lease", "garbage");
  EXPECT_FALSE(disk.Owner(Seconds(1)).has_value());
  EXPECT_TRUE(disk.TryClaim(2, Seconds(1)));
}

// ---------- membership / regroup --------------------------------------------------------

class MembershipFixture : public ::testing::Test {
 protected:
  MembershipFixture() : san_(&sim_, SanConfig{}) {}

  void AddVoters(int count, MembershipService* membership) {
    for (NodeId node = 0; node < count; ++node) {
      san_.AddNode(node);
      membership->SetVotes(node, 1);
    }
  }

  Simulator sim_;
  San san_;
  KvStore disk_store_;
};

TEST_F(MembershipFixture, StrictMajorityWinsWithoutDisk) {
  MembershipService membership(&san_, nullptr);
  AddVoters(3, &membership);
  san_.SetPartition(2, 1);  // Node 2 alone vs {0, 1}.

  MembershipView majority = membership.Regroup(0, Seconds(1));
  EXPECT_TRUE(majority.quorate);
  EXPECT_EQ(majority.votes_held, 2);
  EXPECT_EQ(majority.votes_total, 3);

  MembershipView minority = membership.Regroup(2, Seconds(1));
  EXPECT_FALSE(minority.quorate);
  EXPECT_EQ(minority.votes_held, 1);

  san_.HealPartitions();
  MembershipView healed = membership.Regroup(2, Seconds(2));
  EXPECT_TRUE(healed.quorate);
  EXPECT_EQ(healed.votes_held, 3);
  // Every view change appended a transition line.
  EXPECT_GE(membership.transitions().size(), 3u);
}

// The two-node symmetric partition: both sides hold exactly half the votes; the
// side holding the disk lease wins, the other demotes.
TEST_F(MembershipFixture, TwoNodeTieGoesToTheDiskOwner) {
  QuorumDisk disk(&disk_store_, Seconds(3));
  MembershipService membership(&san_, &disk);
  AddVoters(2, &membership);

  // Node 0 is the incumbent leader: its renewing regroup claims the disk.
  MembershipView before = membership.Regroup(0, Seconds(1), /*renew=*/true);
  EXPECT_TRUE(before.quorate);
  ASSERT_EQ(disk.Owner(Seconds(1)).value_or(kInvalidNode), 0);

  san_.SetPartition(1, 1);  // Symmetric 1-vote vs 1-vote split.

  MembershipView owner_side = membership.Regroup(0, Seconds(2), /*renew=*/true);
  EXPECT_TRUE(owner_side.tie);
  EXPECT_TRUE(owner_side.tie_won_by_disk);
  EXPECT_TRUE(owner_side.quorate);

  // The loser: its lease claim bounces off node 0's live lease, and the
  // read-only arbitration sees an owner it cannot reach.
  MembershipView loser_renew = membership.Regroup(1, Seconds(2), /*renew=*/true);
  EXPECT_TRUE(loser_renew.tie);
  EXPECT_FALSE(loser_renew.quorate);
  MembershipView loser_gate = membership.Regroup(1, Seconds(2));
  EXPECT_FALSE(loser_gate.quorate);

  // Heal: both sides see 2/2 votes again and are quorate outright.
  san_.HealPartitions();
  EXPECT_TRUE(membership.Regroup(0, Seconds(3), /*renew=*/true).quorate);
  EXPECT_TRUE(membership.Regroup(1, Seconds(3)).quorate);
}

// A dead incumbent's unexpired lease still blocks the challenger (the disk
// cannot tell dead from partitioned); the challenger claims after expiry.
TEST_F(MembershipFixture, ChallengerClaimsOnlyAfterLeaseExpiry) {
  QuorumDisk disk(&disk_store_, Seconds(3));
  MembershipService membership(&san_, &disk);
  AddVoters(2, &membership);
  ASSERT_TRUE(membership.Regroup(0, Seconds(10), /*renew=*/true).quorate);

  san_.SetNodeUp(0, false);  // Incumbent dies; lease runs to t=13.

  MembershipView blocked = membership.Regroup(1, Seconds(11), /*renew=*/true);
  EXPECT_TRUE(blocked.tie);
  EXPECT_FALSE(blocked.quorate);

  MembershipView claimed = membership.Regroup(1, Seconds(14), /*renew=*/true);
  EXPECT_TRUE(claimed.tie);
  EXPECT_TRUE(claimed.tie_won_by_disk);
  EXPECT_TRUE(claimed.quorate);
  EXPECT_EQ(disk.Owner(Seconds(14)).value_or(kInvalidNode), 1);

  // The old incumbent restarts: it is back in the member set, and the majority
  // (2/2, no tie) is quorate from both vantages — rejoin is clean.
  san_.SetNodeUp(0, true);
  EXPECT_TRUE(membership.Regroup(0, Seconds(15)).quorate);
  EXPECT_TRUE(membership.Regroup(1, Seconds(15), /*renew=*/true).quorate);
}

// ---------- profile-DB quorum write gate ------------------------------------------------

// Sends one acknowledged ProfilePut straight to the DB (no front end in the way)
// and records the ack's status.
class ProfilePutClient : public Process {
 public:
  ProfilePutClient(Endpoint db, UserProfile profile)
      : Process("profile-put-client"), db_(db), profile_(std::move(profile)) {}

  void OnStart() override {
    auto payload = std::make_shared<ProfilePutPayload>();
    payload->profile = profile_;
    payload->op_id = 7;
    payload->reply_to = endpoint();
    Message msg;
    msg.dst = db_;
    msg.type = kMsgProfilePut;
    msg.transport = Transport::kReliable;
    msg.size_bytes = 64 + profile_.WireSize();
    msg.payload = payload;
    Send(std::move(msg));
  }

  void OnMessage(const Message& msg) override {
    if (msg.type == kMsgProfilePutAck) {
      acks.push_back(static_cast<const ProfilePutAckPayload&>(*msg.payload).status);
    }
  }

  std::vector<Status> acks;

 private:
  Endpoint db_;
  UserProfile profile_;
};

// A profile DB on the minority side of a partition refuses a write that reaches
// it directly: the front end's own fail-fast is not what keeps a minority from
// committing.
TEST(QuorumWriteGateTest, MinorityProfileDbRefusesDirectPut) {
  Logger::Get().set_min_level(LogLevel::kNone);
  Simulator sim;
  San san(&sim, SanConfig{});
  Cluster cluster(&sim, &san);
  MembershipService membership(&san, nullptr);
  std::vector<NodeId> voters = cluster.AddNodes(3);
  for (NodeId node : voters) {
    membership.SetVotes(node, 1);
  }
  NodeId db_node = voters[2];
  NodeId client_node = cluster.AddNode();  // Zero votes.

  KvStore store;
  ProfileDbConfig db_config;
  db_config.membership = &membership;
  ProcessId db_pid = cluster.Spawn(db_node, std::make_unique<ProfileDbProcess>(db_config, &store));
  Endpoint db = cluster.Find(db_pid)->endpoint();
  Counter* rejected = cluster.metrics()->GetCounter("profiledb.writes_rejected");
  Counter* nonquorate = cluster.metrics()->GetCounter("profiledb.writes_nonquorate");
  int64_t rejected_before = rejected->value();

  // The DB and the client share the minority side: 1 of 3 votes.
  san.SetPartition(db_node, 1);
  san.SetPartition(client_node, 1);
  UserProfile profile("minority-user");
  profile.Set("qpref", "v1");
  auto owner = std::make_unique<ProfilePutClient>(db, profile);
  ProfilePutClient* client = owner.get();
  cluster.Spawn(client_node, std::move(owner));
  sim.RunFor(Seconds(1));

  ASSERT_EQ(client->acks.size(), 1u);
  EXPECT_EQ(client->acks[0].code(), StatusCode::kUnavailable) << client->acks[0].ToString();
  EXPECT_FALSE(store.Get("minority-user").has_value());
  EXPECT_EQ(rejected->value(), rejected_before + 1);
  EXPECT_EQ(nonquorate->value(), 0);
}

// ---------- system-level: degrade, fence, failover --------------------------------------

// A manager partitioned into a strict minority degrades to read-only instead of
// acting on stale state; the majority fences it (STONITH) and promotes a
// successor; after the heal exactly one manager remains.
TEST(QuorumSystemTest, MinorityManagerDegradesThenIsFencedByMajority) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(3));

  SnsSystem* system = service.system();
  ManagerProcess* incumbent = system->manager();
  ASSERT_NE(incumbent, nullptr);
  NodeId manager_node = incumbent->node();

  FailureInjector injector(system->cluster(), system->san());
  SimTime now = service.sim()->now();
  injector.PartitionAt(now + Seconds(1), {manager_node}, now + Seconds(20));

  // Within a couple of beacon periods the incumbent has regrouped, found itself
  // in a 1-vote minority, and degraded — before the majority's watchdogs fire.
  service.sim()->RunFor(Seconds(3));
  ASSERT_NE(system->cluster()->Find(incumbent->pid()), nullptr);
  EXPECT_TRUE(incumbent->read_only_degraded());
  EXPECT_GE(incumbent->quorum_losses(), 1);

  // The majority side detects beacon silence, shoots the incumbent through the
  // fence device, and promotes epoch 2. No split-brain window at all.
  service.sim()->RunFor(Seconds(10));
  EXPECT_GE(system->metrics()->GetCounter("fencing.kills")->value(), 1);
  std::vector<ManagerProcess*> during = LiveManagers(system);
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0]->epoch(), 2u);

  // Post-heal: still exactly one manager, and it holds quorum.
  service.sim()->RunFor(Seconds(15));
  std::vector<ManagerProcess*> after = LiveManagers(system);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0]->epoch(), 2u);
  EXPECT_FALSE(after[0]->read_only_degraded());
}

// The symmetric 50/50 split at system level: the disk-owning side (the
// incumbent manager renews the lease with every beacon) keeps serving; the
// minority side's watchdogs are refused promotion, so the cluster never grows a
// second manager; the stranded profile DB is fenced before its successor
// recovers the WAL, and no write is acknowledged from the losing side.
TEST(QuorumSystemTest, SymmetricPartitionResolvesTowardDiskOwner) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 5;
  options.topology.front_ends = 2;
  options.topology.cache_nodes = 2;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(3));

  SnsSystem* system = service.system();
  // 12 voting nodes: manager, 2 FEs, 2 caches, the DB, origin, 5 workers. Split
  // the DB, one FE, one cache, and three workers (6 votes) away from the
  // manager's side (6 votes): an exact tie, broken by the manager's quorum-disk
  // lease.
  ASSERT_EQ(system->membership()->votes_total(), 12);
  ProfileDbProcess* db = system->profile_db();
  ASSERT_NE(db, nullptr);
  uint64_t first_generation = db->generation();
  std::vector<NodeId> minority = {db->node(), system->fe_nodes()[1],
                                  system->cache_node_processes()[1]->node(),
                                  system->worker_pool()[0], system->worker_pool()[1],
                                  system->worker_pool()[2]};

  FailureInjector injector(system->cluster(), system->san());
  SimTime now = service.sim()->now();
  injector.PartitionAt(now + Seconds(1), minority, now + Seconds(25));

  // Profile writes flow throughout the split; unique user per write so
  // durability of every acked value is decidable afterwards.
  int64_t write_seq = 0;
  std::vector<std::string> acked_users;
  PlaybackConfig writer_config;
  writer_config.seed = 0x3717;
  writer_config.request_timeout = Seconds(6);
  writer_config.on_response = [&acked_users](const std::string& user, bool ok) {
    if (ok) {
      acked_users.push_back(user);
    }
  };
  PlaybackEngine* writer = service.AddPlaybackEngine(writer_config);
  writer->StartConstantRate(2.0, [&write_seq] {
    TraceRecord record;
    record.user_id = StrFormat("tie%lld", static_cast<long long>(write_seq));
    record.params["set_qpref"] = StrFormat("v%lld", static_cast<long long>(write_seq));
    record.url = "http://site0.example.edu/obj0.jpg";
    ++write_seq;
    return record;
  });

  service.sim()->RunFor(Seconds(15));
  // Mid-partition: the tie resolved toward the incumbent — one manager, epoch 1,
  // still quorate; the stranded DB was fenced and a successor generation
  // recovered the WAL on the majority side.
  std::vector<ManagerProcess*> during = LiveManagers(system);
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0]->epoch(), 1u);
  EXPECT_FALSE(during[0]->read_only_degraded());
  EXPECT_GE(system->metrics()->GetCounter("fencing.kills")->value(), 1);
  ASSERT_NE(system->profile_db(), nullptr);
  EXPECT_GT(system->profile_db()->generation(), first_generation);

  service.sim()->RunFor(Seconds(30));
  writer->StopLoad();
  service.sim()->RunFor(Seconds(10));

  // The losing side never acknowledged a write, and every write the client saw
  // acknowledged is in the ACID store with the acknowledged value.
  EXPECT_EQ(system->metrics()->GetCounter("profiledb.writes_nonquorate")->value(), 0);
  EXPECT_GT(acked_users.size(), 0u);
  for (const std::string& user : acked_users) {
    auto record = system->profile_store()->Get(user);
    ASSERT_TRUE(record.has_value()) << "acked write for " << user << " lost";
    auto profile = UserProfile::Deserialize(user, *record);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ(profile->GetOr("qpref", ""), "v" + user.substr(3));
  }

  // Heal rejoined cleanly: one manager (epoch 1 — no failover ever happened),
  // one DB incarnation.
  std::vector<ManagerProcess*> after = LiveManagers(system);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0]->epoch(), 1u);
  EXPECT_EQ(LiveProfileDbProcesses(system).size(), 1u);
}

// ---------- chaos campaign with the §14 invariants --------------------------------------

CampaignConfig QuorumCampaignConfig() {
  CampaignConfig config;
  config.gen.horizon = Seconds(30);
  config.gen.min_events = 2;
  config.gen.max_events = 5;
  config.gen.min_outage = Seconds(5);
  config.gen.max_outage = Seconds(15);
  // Bias the mix toward the faults this PR is about: partitions (fenced
  // failovers) and profile-DB crashes/partitions.
  config.gen.kind_weights = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0};
  config.warmup = Seconds(10);
  config.quiesce_settle = Seconds(20);
  return config;
}

// The acceptance campaign for the §14 contract: 20 seeds, R=2 caches, fault mix
// including partitions and fenced failovers; zero acked-write loss and zero
// minority-side acks across every schedule.
TEST(QuorumCampaignTest, TwentySeedsZeroAckedWriteLoss) {
  Logger::Get().set_min_level(LogLevel::kNone);
  CampaignResult result = RunCampaign(0x9D15C, 20, QuorumCampaignConfig());
  std::string failures;
  int64_t fence_kills = 0;
  int64_t writes_acked = 0;
  for (const ChaosRunResult& run : result.runs) {
    if (!run.passed()) {
      failures += run.Describe() + run.trace;
    }
    EXPECT_EQ(run.writes_lost, 0) << run.Describe();
    EXPECT_EQ(run.nonquorate_writes, 0) << run.Describe();
    fence_kills += run.fence_kills;
    writes_acked += run.writes_acked;
  }
  EXPECT_EQ(result.failed, 0) << result.Summary() << failures;
  EXPECT_GT(fence_kills, 0) << "campaign never exercised a fenced failover";
  EXPECT_GT(writes_acked, 0) << "campaign never acknowledged a profile write";
}

// Cross-feature campaign: the quorum/durability invariants (6-8) and the
// replicated-cache-tier convergence invariant (5) exercised by the same 20
// schedules, at R=3 with the fault mix biased toward cache-node crashes on top
// of the partition/DB faults above. Replica-chain rebalances triggered by
// cache deaths must converge at quiesce even when the same schedule is
// simultaneously fencing managers and failing over the profile DB — the two
// subsystems share the SAN and the membership beacons, so this composition is
// where independent per-feature campaigns have a blind spot.
TEST(QuorumCampaignTest, TwentySeedsCacheReplicationThreeConverges) {
  Logger::Get().set_min_level(LogLevel::kNone);
  CampaignConfig config = QuorumCampaignConfig();
  config.cache_replication = 3;
  config.cache_nodes = 3;
  // Keep the quorum-heavy mix but make every schedule likely to kill caches.
  config.gen.kind_weights = {1.0, 1.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0};
  CampaignResult result = RunCampaign(0xCAC3E3, 20, config);
  std::string failures;
  int64_t cache_faults = 0;
  for (const ChaosRunResult& run : result.runs) {
    if (!run.passed()) {
      failures += run.Describe() + run.trace;
    }
    EXPECT_EQ(run.writes_lost, 0) << run.Describe();
    EXPECT_EQ(run.nonquorate_writes, 0) << run.Describe();
    for (const FaultEvent& ev : run.schedule.events) {
      if (ev.kind == FaultKind::kCrashCacheNode) {
        ++cache_faults;
      }
    }
  }
  EXPECT_EQ(result.failed, 0) << result.Summary() << failures;
  EXPECT_GT(cache_faults, 0) << "campaign never crashed a cache node";
}

// A profile-DB partition while writes flow: the stranded DB is fenced, its
// successor recovers the WAL on the majority side, and no acknowledged write is
// lost — unacked writes may be, acknowledged ones never.
TEST(QuorumCampaignTest, ProfileDbPartitionLosesNoAckedWrite) {
  Logger::Get().set_min_level(LogLevel::kNone);
  FaultSchedule schedule;
  schedule.seed = 0xFA15EACC;
  FaultEvent split;
  split.at = Seconds(5);
  split.kind = FaultKind::kPartitionProfileDb;
  split.duration = Seconds(15);
  schedule.events.push_back(split);

  ChaosRunResult run = RunSchedule(schedule, QuorumCampaignConfig());
  EXPECT_TRUE(run.passed()) << run.Describe() << run.trace;
  EXPECT_GT(run.writes_acked, 0) << run.Describe();
  EXPECT_EQ(run.writes_lost, 0);
  EXPECT_EQ(run.nonquorate_writes, 0);
}

}  // namespace
}  // namespace sns

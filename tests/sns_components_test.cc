// Component-level tests of the SNS layer on a minimal live system: manager soft
// state and spawning, worker stub behavior, cache nodes, the profile DB, and the
// monitor.

#include <gtest/gtest.h>

#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

TranSendOptions TinyOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 100;
  return options;
}

TEST(ManagerTest, WorkersRegisterViaBeaconsAndAppearInHints) {
  TranSendService service(TinyOptions());
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  service.system()->StartWorker(kGifDistillerType);
  service.sim()->RunFor(Seconds(3));

  ManagerProcess* manager = service.system()->manager();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->KnownWorkerCount(), 2u);
  EXPECT_EQ(manager->KnownWorkerCount(kJpegDistillerType), 1u);
  EXPECT_GT(manager->beacons_sent(), 1);
  EXPECT_GT(manager->reports_received(), 0);
}

TEST(ManagerTest, DeadWorkerExpiresFromSoftState) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  service.sim()->RunFor(Seconds(3));
  ASSERT_EQ(service.system()->manager()->KnownWorkerCount(), 1u);

  auto workers = service.system()->live_workers(kJpegDistillerType);
  service.system()->cluster()->Crash(workers[0]->pid());
  // Lease (kWorkerTtl = 3 s) expires without any report.
  service.sim()->RunFor(Seconds(6));
  EXPECT_EQ(service.system()->manager()->KnownWorkerCount(), 0u);
}

TEST(ManagerTest, SpawnRequestCreatesMissingWorkerType) {
  TranSendService service(TinyOptions());
  service.Start();
  service.sim()->RunFor(Seconds(2));
  EXPECT_TRUE(service.system()->live_workers(kHtmlDistillerType).empty());

  // Simulate a front end asking for a missing type.
  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  // Drive through the real path: a client request for an HTML page.
  PlaybackEngine* client = service.AddPlaybackEngine();
  TraceRecord record;
  record.user_id = "u";
  record.url = "http://site0.example.edu/obj1.html";
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  EXPECT_FALSE(service.system()->live_workers(kHtmlDistillerType).empty());
}

TEST(ManagerTest, PlacementAvoidsInfrastructureNodes) {
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));
  TraceRecord record;
  record.user_id = "u";
  record.url = "http://site0.example.edu/obj2.jpg";
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));

  for (WorkerProcess* worker : service.system()->live_workers()) {
    NodeId node = worker->node();
    EXPECT_TRUE(service.system()->cluster()->WorkersAllowed(node));
    EXPECT_NE(node, service.system()->manager_node());
  }
}

TEST(ManagerTest, OverflowPoolUsedOnlyWhenDedicatedExhausted) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.topology.worker_pool_nodes = 1;
  options.topology.overflow_nodes = 2;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(2));

  ManagerProcess* manager = service.system()->manager();
  ASSERT_NE(manager, nullptr);
  // First worker lands on the dedicated node.
  service.system()->StartWorker(kJpegDistillerType);
  service.sim()->RunFor(Seconds(2));
  auto workers = service.system()->live_workers();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_FALSE(service.system()->cluster()->IsOverflowNode(workers[0]->node()));
}

TEST(ManagerTest, NoWorkerNodesFallsBackToApproximateAnswer) {
  // BASE end to end: with nowhere to spawn distillers, the request is still
  // answered — with the original content ("an approximate answer delivered
  // quickly is more useful than the exact answer delivered slowly", §3.1.8).
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.topology.worker_pool_nodes = 0;  // No capacity for workers at all.
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

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
  record.user_id = "fallback";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(150));

  ASSERT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
  auto sources = client->responses_by_source();
  EXPECT_EQ(sources["approximate"], 1);
  // The user got the ORIGINAL bytes, undistilled.
  EXPECT_GE(client->bytes_received(), service.universe()->ModeledSize(url));
}

TEST(WorkerProcessTest, QueuesTasksFifoAndReportsLoad) {
  TranSendService service(TinyOptions());
  service.Start();
  ProcessId pid = service.system()->StartWorker(kJpegDistillerType);
  ASSERT_NE(pid, kInvalidProcess);
  service.sim()->RunFor(Seconds(3));

  auto* worker = dynamic_cast<WorkerProcess*>(service.system()->cluster()->Find(pid));
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->worker_type(), kJpegDistillerType);
  EXPECT_EQ(worker->QueueLength(), 0.0);
  EXPECT_GT(service.system()->manager()->reports_received(), 0);
}

TEST(CacheNodeTest, StoresAndServesContent) {
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  TraceRecord record;
  record.user_id = "u";
  record.url = service.universe()->UrlAt(3);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  int64_t cached_bytes = 0;
  for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
    cached_bytes += cache->used_bytes();
  }
  EXPECT_GT(cached_bytes, 0);  // The original (and maybe variant) were injected.
}

TEST(CacheNodeTest, CrashLosesDataButServiceRegenerates) {
  // "All cached data can be thrown away at the cost of performance" (§3.1.5).
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  TraceRecord record;
  record.user_id = "u";
  record.url = service.universe()->UrlAt(5);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  for (CacheNodeProcess* cache : service.system()->cache_node_processes()) {
    service.system()->cluster()->Crash(cache->pid());
  }
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  EXPECT_EQ(client->completed(), 2);  // Re-fetched from the origin.
  EXPECT_EQ(client->errors(), 0);
}

TEST(ProfileDbTest, ProfilesDriveDistillationParameters) {
  TranSendService service(TinyOptions());
  UserProfile lo("lowuser");
  lo.Set("quality", "low");
  service.system()->SeedProfile(lo);
  UserProfile hi("highuser");
  hi.Set("quality", "high");
  service.system()->SeedProfile(hi);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  // Find a large opaque JPEG so the reduction model applies cleanly.
  std::string url;
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    std::string candidate = service.universe()->UrlAt(i);
    if (service.universe()->MimeOf(candidate) == MimeType::kJpeg &&
        service.universe()->ModeledSize(candidate) > 8192) {
      url = candidate;
      break;
    }
  }
  ASSERT_FALSE(url.empty());

  TraceRecord low_record{0, "lowuser", url, {}};
  client->SendRequest(low_record);
  service.sim()->RunFor(Seconds(140));
  int64_t low_bytes = client->bytes_received();
  ASSERT_EQ(client->completed(), 1);

  TraceRecord high_record{0, "highuser", url, {}};
  client->SendRequest(high_record);
  service.sim()->RunFor(Seconds(30));
  ASSERT_EQ(client->completed(), 2);
  int64_t high_bytes = client->bytes_received() - low_bytes;
  // "low" (scale 4, q10) must be much smaller than "high" (scale 1, q50).
  EXPECT_LT(low_bytes * 3, high_bytes);
  EXPECT_GT(service.system()->profile_db()->reads(), 0);
}

TEST(ProfileDbTest, SurvivesCrashViaWalRecovery) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  UserProfile profile("durable-user");
  profile.Set("quality", "low");
  service.system()->SeedProfile(profile);
  service.Start();
  service.sim()->RunFor(Seconds(2));

  // Crash the DB process; the KvStore (the "disk") persists; respawn recovers.
  ProfileDbProcess* db = service.system()->profile_db();
  ASSERT_NE(db, nullptr);
  service.system()->cluster()->Crash(db->pid());
  service.system()->profile_store()->SimulateCrash();
  auto recovered = service.system()->profile_store()->Recover();
  ASSERT_TRUE(recovered.ok());
  auto stored = service.system()->profile_store()->Get("durable-user");
  ASSERT_TRUE(stored.has_value());
  auto parsed = UserProfile::Deserialize("durable-user", *stored);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetOr("quality", ""), "low");
}

TEST(MonitorTest, TracksComponentsAndAlarmsOnSilence) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  service.sim()->RunFor(Seconds(4));

  MonitorProcess* monitor = service.system()->monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_GT(monitor->beacons_observed(), 0);
  EXPECT_GE(monitor->LiveComponentCount(), 2u);  // Manager + worker at least.
  std::string snapshot = monitor->RenderSnapshot();
  EXPECT_NE(snapshot.find("manager"), std::string::npos);
  EXPECT_NE(snapshot.find(kJpegDistillerType), std::string::npos);

  // Kill the worker: the monitor pages the operator when reports stop.
  int alarms_before = static_cast<int>(monitor->alarms().size());
  auto workers = service.system()->live_workers(kJpegDistillerType);
  service.system()->cluster()->Crash(workers[0]->pid());
  service.sim()->RunFor(Seconds(10));
  EXPECT_GT(static_cast<int>(monitor->alarms().size()), alarms_before);
}

// A worker whose instances are NOT interchangeable, like HotBot's statically
// partitioned search shards (§3.2).
class ShardWorker : public TaccWorker {
 public:
  std::string type() const override { return "search-shard"; }
  TaccResult Process(const TaccRequest& request) override {
    return TaccResult::Ok(request.inputs.empty() ? nullptr : request.input());
  }
  bool interchangeable() const override { return false; }
};

// Observes manager beacons (the same multicast the stubs use) and can forge a
// stub-style dead report, letting tests drive the manager's soft-state paths.
class BeaconProbe : public Process {
 public:
  BeaconProbe() : Process("beacon-probe") {}

  void OnStart() override { JoinGroup(kGroupManagerBeacon); }
  void OnStop() override { LeaveGroup(kGroupManagerBeacon); }
  void OnMessage(const Message& msg) override {
    if (msg.type == kMsgManagerBeacon) {
      last_beacon_ = static_cast<const ManagerBeaconPayload&>(*msg.payload);
      ++beacons_seen_;
    }
  }

  // Forges the report a front-end stub sends when it observes a worker dead
  // (broken connection): queue_length = -1.
  void SendDeadReport(const std::string& worker_type, const Endpoint& worker) {
    auto payload = std::make_shared<LoadReportPayload>();
    payload->kind = ComponentKind::kWorker;
    payload->worker_type = worker_type;
    payload->component = worker;
    payload->queue_length = -1;
    Message msg;
    msg.dst = last_beacon_.manager;
    msg.type = kMsgLoadReport;
    msg.transport = Transport::kDatagram;
    msg.size_bytes = 80;
    msg.payload = payload;
    Send(std::move(msg));
  }

  const ManagerBeaconPayload& last_beacon() const { return last_beacon_; }
  int64_t beacons_seen() const { return beacons_seen_; }

 private:
  ManagerBeaconPayload last_beacon_;
  int64_t beacons_seen_ = 0;
};

const WorkerHint* FindHint(const ManagerBeaconPayload& beacon, const Endpoint& worker) {
  for (const WorkerHint& hint : beacon.workers) {
    if (hint.endpoint == worker) {
      return &hint;
    }
  }
  return nullptr;
}

TEST(ManagerTest, ReregistrationPreservesAffinityClass) {
  // A non-interchangeable worker must stay non-interchangeable across every
  // (re-)registration path: the explicit register at startup, the beacon-triggered
  // re-register after a manager restart, and the implicit re-register via load
  // report after the manager dropped the entry (a dead report it believed).
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.system()->registry()->Register("search-shard",
                                         [] { return std::make_unique<ShardWorker>(); });
  service.Start();
  service.system()->StartWorker("search-shard");

  NodeConfig probe_node_config;
  probe_node_config.workers_allowed = false;
  NodeId probe_node = service.system()->cluster()->AddNode(probe_node_config);
  auto probe_owner = std::make_unique<BeaconProbe>();
  BeaconProbe* probe = probe_owner.get();
  service.system()->cluster()->Spawn(probe_node, std::move(probe_owner));

  service.sim()->RunFor(Seconds(3));
  auto shards = service.system()->live_workers("search-shard");
  ASSERT_EQ(shards.size(), 1u);
  Endpoint shard_ep = shards[0]->endpoint();

  // Explicit registration at startup.
  ASSERT_GT(probe->beacons_seen(), 0);
  const WorkerHint* hint = FindHint(probe->last_beacon(), shard_ep);
  ASSERT_NE(hint, nullptr);
  EXPECT_FALSE(hint->interchangeable);

  // Manager restart: the worker re-registers when it sees the new incarnation's
  // first beacon (no recovery code, §3.1.3).
  ProcessId old_manager = service.system()->manager_pid();
  service.system()->cluster()->Crash(old_manager);
  service.sim()->RunFor(Seconds(15));
  ASSERT_NE(service.system()->manager(), nullptr);
  ASSERT_NE(service.system()->manager_pid(), old_manager);
  hint = FindHint(probe->last_beacon(), shard_ep);
  ASSERT_NE(hint, nullptr);
  EXPECT_FALSE(hint->interchangeable);

  // Implicit re-registration: a forged dead report makes the manager drop the
  // entry; the worker's next periodic load report re-creates it. The hint must
  // carry the worker's real affinity class, not the default.
  probe->SendDeadReport("search-shard", shard_ep);
  service.sim()->RunFor(Seconds(3));
  bool original_still_live = false;
  for (WorkerProcess* worker : service.system()->live_workers("search-shard")) {
    original_still_live = original_still_live || worker->endpoint() == shard_ep;
  }
  ASSERT_TRUE(original_still_live);
  hint = FindHint(probe->last_beacon(), shard_ep);
  ASSERT_NE(hint, nullptr);
  EXPECT_FALSE(hint->interchangeable);
}

// Records relaunch requests without actually starting anything, so the beacon
// silence persists and the throttle (not a fresh manager) is what limits calls.
class CountingLauncher : public ComponentLauncher {
 public:
  ProcessId LaunchWorker(const std::string&, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchManager(NodeId) override {
    ++manager_relaunches;
    return kInvalidProcess;
  }
  ProcessId RelaunchFrontEnd(int, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchProfileDb(NodeId) override { return kInvalidProcess; }

  int manager_relaunches = 0;
};

// Sends one hand-built manager beacon at startup, then goes silent forever.
class ForgedBeaconSender : public Process {
 public:
  ForgedBeaconSender() : Process("forged-beacon") {}
  void OnStart() override {
    auto payload = std::make_shared<ManagerBeaconPayload>();
    payload->manager = Endpoint{node(), 1};
    Message msg;
    msg.type = kMsgManagerBeacon;
    msg.transport = Transport::kDatagram;
    msg.size_bytes = WireSizeOf(*payload);
    msg.payload = payload;
    SendMulticast(kGroupManagerBeacon, std::move(msg));
  }
};

TEST(MonitorTest, SweepRestartsManagerOncePerSilenceWindow) {
  // The sweep runs every kMonitorReportPeriod (1 s), but a persistent silence
  // must trigger one relaunch attempt per silence window (kManagerSilenceRestart
  // + report period = 5 s), not one per sweep — otherwise a dead launcher target
  // gets hammered every second.
  Logger::Get().set_min_level(LogLevel::kNone);
  Simulator sim;
  San san(&sim, SanConfig{});
  Cluster cluster(&sim, &san);
  NodeId node = cluster.AddNode();
  CountingLauncher launcher;
  auto owner = std::make_unique<MonitorProcess>(&launcher);
  MonitorProcess* monitor = owner.get();
  cluster.Spawn(node, std::move(owner));
  cluster.Spawn(node, std::make_unique<ForgedBeaconSender>());

  // Beacon lands just after t=0; the silence threshold is crossed at ~5 s and the
  // next 1 s sweep fires the first (and only) relaunch of that window.
  sim.RunFor(Seconds(7));
  EXPECT_EQ(launcher.manager_relaunches, 1);
  EXPECT_GE(monitor->beacons_observed(), 1);

  sim.RunFor(Seconds(3));  // t=10: well within the second window — still one.
  EXPECT_EQ(launcher.manager_relaunches, 1);

  sim.RunFor(Seconds(3));  // t=13: second window elapsed — exactly one more.
  EXPECT_EQ(launcher.manager_relaunches, 2);
}

TEST(MonitorTest, AlarmHandlerInvoked) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  service.sim()->RunFor(Seconds(4));
  std::vector<MonitorAlarm> pages;
  service.system()->monitor()->set_alarm_handler(
      [&pages](const MonitorAlarm& alarm) { pages.push_back(alarm); });
  auto workers = service.system()->live_workers(kJpegDistillerType);
  service.system()->cluster()->Crash(workers[0]->pid());
  service.sim()->RunFor(Seconds(10));
  ASSERT_FALSE(pages.empty());
  EXPECT_NE(pages[0].message.find("stopped reporting"), std::string::npos);
}

}  // namespace
}  // namespace sns

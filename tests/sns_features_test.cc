// Tests for the optional/extension SNS features: the preferences UI writing through
// to the ACID store, hot upgrades (§1.2), profile-DB failover, dynamic front-end
// addition, and front-end load shedding.

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

std::string BigJpegUrl(TranSendService* service) {
  for (int64_t i = 0; i < service->universe()->url_count(); ++i) {
    std::string url = service->universe()->UrlAt(i);
    if (service->universe()->MimeOf(url) == MimeType::kJpeg &&
        service->universe()->ModeledSize(url) > 8192) {
      return url;
    }
  }
  return "";
}

// ---------- preferences UI (§2.2.1 / §3.1.6 toolbar) -----------------------------------

TEST(PrefsUiTest, SetParamsUpdateProfileAndPersist) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  TraceRecord prefs;
  prefs.user_id = "newbie";
  prefs.url = "http://transend.berkeley.edu/prefs";
  client->SendRequest(prefs, {{"set_quality", "low"}});
  service.sim()->RunFor(Seconds(5));
  ASSERT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);

  // Durable: the ACID store has the updated profile.
  service.sim()->RunFor(Seconds(2));
  auto stored = service.system()->profile_store()->Get("newbie");
  ASSERT_TRUE(stored.has_value());
  auto profile = UserProfile::Deserialize("newbie", *stored);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->GetOr("quality", ""), "low");
}

TEST(PrefsUiTest, UpdatedPreferencesChangeDistillation) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));
  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());

  // Default prefs ("med") first.
  TraceRecord fetch;
  fetch.user_id = "tuner";
  fetch.url = url;
  client->SendRequest(fetch);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);
  int64_t med_bytes = client->bytes_received();

  // Flip to "low" via the prefs UI, then refetch.
  TraceRecord prefs;
  prefs.user_id = "tuner";
  prefs.url = "http://transend.berkeley.edu/prefs";
  client->SendRequest(prefs, {{"set_quality", "low"}});
  service.sim()->RunFor(Seconds(5));
  ASSERT_EQ(client->completed(), 2);
  int64_t after_prefs = client->bytes_received();

  client->SendRequest(fetch);
  service.sim()->RunFor(Seconds(30));
  ASSERT_EQ(client->completed(), 3);
  int64_t low_bytes = client->bytes_received() - after_prefs;
  EXPECT_LT(low_bytes * 2, med_bytes);  // "low" (scale 4 / q10) is much smaller.
}

// ---------- hot upgrades (§1.2: "upgrade them in place") -----------------------------------

TEST(HotUpgradeTest, WorkersReplacedOneAtATimeWithZeroDowntime) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.logic.cache_distilled = false;
  options.universe.url_count = 40;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  // Warm and get two distillers running.
  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());
  TraceRecord record;
  record.user_id = "up";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  service.system()->StartWorker(kJpegDistillerType);
  service.sim()->RunFor(Seconds(2));
  auto before = service.system()->live_workers(kJpegDistillerType);
  ASSERT_EQ(before.size(), 2u);
  std::vector<ProcessId> old_pids;
  for (WorkerProcess* worker : before) {
    old_pids.push_back(worker->pid());
  }

  client->ResetStats();
  client->StartConstantRate(18, [&record] { return record; });
  service.sim()->RunFor(Seconds(5));
  int scheduled = service.system()->HotUpgradeWorkers(kJpegDistillerType, Seconds(4));
  EXPECT_EQ(scheduled, 2);
  service.sim()->RunFor(Seconds(30));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  // All instances replaced...
  auto after = service.system()->live_workers(kJpegDistillerType);
  ASSERT_GE(after.size(), 2u);
  for (WorkerProcess* worker : after) {
    for (ProcessId old_pid : old_pids) {
      EXPECT_NE(worker->pid(), old_pid);
    }
  }
  // ...with the service never down.
  EXPECT_EQ(client->errors(), 0);
  double answered = static_cast<double>(client->completed()) /
                    static_cast<double>(client->completed() + client->timeouts());
  EXPECT_GT(answered, 0.99);
}

// ---------- profile DB failover (Table 1: primary/backup ACID) ------------------------------

TEST(ProfileDbFailoverTest, ManagerRestartsSilentDbAndDataSurvives) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  UserProfile profile("persistent");
  profile.Set("quality", "high");
  service.system()->SeedProfile(profile);
  service.Start();
  service.sim()->RunFor(Seconds(3));

  ProfileDbProcess* db = service.system()->profile_db();
  ASSERT_NE(db, nullptr);
  ProcessId old_pid = db->pid();
  service.system()->cluster()->Crash(old_pid);

  // Heartbeats stop; the manager's lease expires and it fails over.
  service.sim()->RunFor(Seconds(12));
  ProfileDbProcess* fresh = service.system()->profile_db();
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->pid(), old_pid);
  EXPECT_GT(service.system()->manager()->profile_db_failovers(), 0);

  // The new primary recovered the WAL: the profile still drives requests.
  auto stored = service.system()->profile_store()->Get("persistent");
  ASSERT_TRUE(stored.has_value());
}

// ---------- total control-plane loss (monitor as operator-of-last-resort) ---------------------

TEST(ControlPlaneLossTest, SimultaneousManagerAndAllFrontEndDeathHeals) {
  // The mutual process-peer web (manager <-> FEs, §3.1.3) deadlocks if both sides
  // die in the same detection window. The monitor — the component that would page
  // the operator — acts as the operator of last resort: it restarts the manager,
  // and restoring the control plane restores the configured roster.
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.sim()->RunFor(Seconds(3));

  ProcessId old_manager = service.system()->manager_pid();
  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  ProcessId old_fe = fe->pid();
  service.system()->cluster()->Crash(old_manager);
  service.system()->cluster()->Crash(old_fe);
  ASSERT_EQ(service.system()->manager(), nullptr);
  ASSERT_TRUE(service.system()->front_ends().empty());

  service.sim()->RunFor(Seconds(15));
  ASSERT_NE(service.system()->manager(), nullptr);
  ASSERT_FALSE(service.system()->front_ends().empty());
  EXPECT_NE(service.system()->manager_pid(), old_manager);
  EXPECT_NE(service.system()->front_end(0)->pid(), old_fe);
  EXPECT_GT(service.system()->monitor()->manager_restarts_triggered(), 0);

  // Full service resumes.
  PlaybackEngine* client = service.AddPlaybackEngine();
  TraceRecord record;
  record.user_id = "afterlife";
  record.url = service.universe()->UrlAt(0);
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
}

// ---------- dynamic FE addition & load shedding -----------------------------------------------

TEST(FrontEndOpsTest, AddFrontEndServesTraffic) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.sim()->RunFor(Seconds(2));
  int new_index = service.system()->AddFrontEnd();
  EXPECT_EQ(new_index, 1);
  service.sim()->RunFor(Seconds(2));
  ASSERT_EQ(service.system()->front_ends().size(), 2u);

  // The client's round robin reaches both FEs.
  PlaybackEngine* client = service.AddPlaybackEngine();
  TraceRecord record;
  record.user_id = "multi";
  record.url = service.universe()->UrlAt(0);
  for (int i = 0; i < 4; ++i) {
    client->SendRequest(record);
    service.sim()->RunFor(Seconds(40));
  }
  service.sim()->RunFor(Seconds(120));
  EXPECT_EQ(client->completed(), 4);
  int64_t total = 0;
  for (FrontEndProcess* fe : service.system()->front_ends()) {
    total += fe->completed_requests();
    EXPECT_GT(fe->completed_requests(), 0);
  }
  EXPECT_EQ(total, 4);
}

TEST(FrontEndOpsTest, ThreadPoolQueuesBeyondCapacity) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.sns.fe_thread_pool_size = 2;  // Tiny pool: force queueing.
  options.logic.cache_distilled = false;
  options.universe.url_count = 40;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(2));

  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());
  TraceRecord record;
  record.user_id = "q";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));  // Warm cache + distiller.

  // Fire a burst far beyond 2 concurrent threads.
  for (int i = 0; i < 30; ++i) {
    client->SendRequest(record);
  }
  service.sim()->RunFor(Seconds(60));
  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  EXPECT_LE(fe->peak_active_requests(), 2);
  EXPECT_EQ(client->completed(), 31);  // Queued, not dropped.
  EXPECT_EQ(client->errors(), 0);
}

}  // namespace
}  // namespace sns

// Operations demo: running the service like the paper's operators did.
//
// Shows the administrative surface the paper attributes to the architecture:
//   - the graphical monitor's unified view (§3.1.7) and operator paging,
//   - users changing their own preferences through the toolbar's UI, written
//     through to the ACID profile database (§2.2.1, §3.1.4),
//   - a zero-downtime hot upgrade of a worker class (§1.2: "temporarily disable a
//     subset of nodes and then upgrade them in place") — the paper ran TranSend
//     "with essentially no administration except for feature upgrades and bug
//     fixes, both of which are performed without bringing the service down" (§5.2),
//   - failover of the ACID profile database from its write-ahead log.
//
// Run:  ./build/examples/operations_demo

#include <cstdio>

#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

void Run() {
  Logger::Get().set_min_level(LogLevel::kError);

  TranSendOptions options = DefaultTranSendOptions();
  options.universe.url_count = 60;
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = 6;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  // Page the operator on alarms, like the monitor's email/pager hook.
  if (service.system()->monitor() != nullptr) {
    service.system()->monitor()->set_alarm_handler([](const MonitorAlarm& alarm) {
      std::printf("  [pager] %s: %s\n", FormatTime(alarm.when).c_str(),
                  alarm.message.c_str());
    });
  }

  // Warm the cache and bring up distillers under a steady load.
  for (int64_t i = 0; i < service.universe()->url_count(); ++i) {
    TraceRecord record;
    record.user_id = "warm";
    record.url = service.universe()->UrlAt(i);
    client->SendRequest(record);
    service.sim()->RunFor(Milliseconds(150));
  }
  service.sim()->RunFor(Seconds(130));
  client->ResetStats();

  client->StartConstantRate(18, UniformUrls(service.universe(), 0x0b5, "steady"));
  service.sim()->RunFor(Seconds(10));

  std::printf("--- the monitor's unified view (the visualization panel) ---\n");
  std::printf("%s", service.system()->monitor()->RenderSnapshot().c_str());

  // --- A user edits preferences through the toolbar UI. ---
  std::printf("\n--- user 'steady' switches quality to 'low' via /prefs ---\n");
  TraceRecord prefs;
  prefs.user_id = "steady";
  prefs.url = "http://transend.berkeley.edu/prefs";
  client->SendRequest(prefs, {{"set_quality", "low"}});
  service.sim()->RunFor(Seconds(3));
  auto stored = service.system()->profile_store()->Get("steady");
  std::printf("  ACID store now holds: quality=%s\n",
              stored.has_value()
                  ? UserProfile::Deserialize("steady", *stored)->GetOr("quality", "?").c_str()
                  : "(missing)");

  // --- Hot upgrade of the JPEG distillers, one at a time, under load. ---
  std::printf("\n--- hot upgrade: replacing every distill-jpeg worker in place ---\n");
  int64_t completed_before = client->completed();
  int64_t timeouts_before = client->timeouts();
  int upgraded = service.system()->HotUpgradeWorkers(kJpegDistillerType, Seconds(3));
  service.sim()->RunFor(Seconds(20));
  std::printf("  %d workers replaced; during the upgrade the service answered %lld\n"
              "  requests with %lld timeouts\n",
              upgraded, static_cast<long long>(client->completed() - completed_before),
              static_cast<long long>(client->timeouts() - timeouts_before));

  // --- Profile DB failover. ---
  std::printf("\n--- killing the profile DB primary (failover from the WAL) ---\n");
  ProfileDbProcess* db = service.system()->profile_db();
  if (db != nullptr) {
    service.system()->cluster()->Crash(db->pid());
  }
  service.sim()->RunFor(Seconds(12));
  ProfileDbProcess* fresh = service.system()->profile_db();
  std::printf("  new primary: %s; user 'steady' still has quality=%s\n",
              fresh != nullptr ? "up" : "MISSING",
              service.system()->profile_store()->Get("steady").has_value() ? "low" : "?");

  client->StopLoad();
  service.sim()->RunFor(Seconds(5));
  std::printf("\n--- end of shift ---\n");
  std::printf("  requests answered: %lld, errors: %lld, timeouts: %lld\n",
              static_cast<long long>(client->completed()),
              static_cast<long long>(client->errors()),
              static_cast<long long>(client->timeouts()));
  std::printf("  operator actions required beyond the above: none — spawning, balancing\n"
              "  and restarts were autonomous (total spawns: %lld)\n",
              static_cast<long long>(service.system()->cluster()->total_spawns()));
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

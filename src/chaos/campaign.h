// The chaos campaign: seeded fault schedules driven against a full TranSend
// system, with invariants checked at quiesce.
//
// Each run builds a fresh simulated cluster, applies constant client load with
// per-request deadlines, compiles the schedule's symbolic fault events into
// FailureInjector calls (resolving victims against the live topology at fire
// time), lets every fault heal, drains the load, and then checks the
// cluster-wide invariants of src/chaos/invariants.h. Runs are deterministic:
// the same schedule against the same build produces byte-identical traces.

#ifndef SRC_CHAOS_CAMPAIGN_H_
#define SRC_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/invariants.h"
#include "src/chaos/schedule.h"

namespace sns {

struct CampaignConfig {
  ScheduleGenConfig gen;
  SimDuration warmup = Seconds(12);
  SimDuration request_deadline = Seconds(8);
  SimDuration request_timeout = Seconds(12);
  // Post-drain settle window: beacon periods + soft-state TTLs must elapse so the
  // roster and ring invariants measure convergence, not mid-flight churn.
  SimDuration quiesce_settle = Seconds(30);
  int worker_pool_nodes = 6;
  int front_ends = 2;
  int cache_nodes = 2;
  // R-way cache replication: campaigns run with R=2 so every schedule exercises
  // replica-chain rebalancing and the replica-chain-convergence invariant.
  int cache_replication = 2;
  int url_count = 40;
};

struct ChaosRunResult {
  FaultSchedule schedule;
  InvariantReport report;
  // Peak number of concurrently live manager incarnations observed by the
  // half-second sampler (>= 2 proves the run created real split-brain).
  int max_concurrent_managers = 0;
  uint64_t final_manager_epoch = 0;
  int64_t manager_demotions = 0;
  int64_t faults_injected = 0;
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t timeouts = 0;
  int64_t send_failures = 0;
  // OK responses landing between deadline and timeout; allowed (best-effort
  // deadline), reported for visibility.
  int64_t late_completions = 0;
  // Quorum/fencing accounting (PR 8).
  int64_t fence_kills = 0;
  int64_t writes_sent = 0;   // Profile writes issued by the writer client.
  int64_t writes_acked = 0;  // ... of which the client saw answered Ok.
  int64_t writes_lost = 0;   // Acked writes missing from the store at quiesce.
  int64_t nonquorate_writes = 0;  // Commits applied on a minority side.
  // Sim-time-stamped event trace (fault injections + manager-census transitions).
  // Deterministic: identical across replays of the same schedule.
  std::string trace;

  bool passed() const { return report.ok(); }
  std::string Describe() const;
};

ChaosRunResult RunSchedule(const FaultSchedule& schedule, const CampaignConfig& config);

// Resolves one symbolic fault event against the live topology and applies it
// through `injector` (so it lands in the injector's deterministic event log).
// Shared by the campaign runner and the scenario-matrix harness, which drives
// the same generated schedules under arbitrary workloads.
class SnsSystem;
class FailureInjector;
void ApplyScheduledFault(const FaultEvent& event, SnsSystem* system,
                         FailureInjector* injector);

// Schedules every event of `schedule` to fire through ApplyScheduledFault at
// `start` + its offset. `schedule` and `injector` must outlive the run.
void ScheduleFaults(const FaultSchedule& schedule, SimTime start, SnsSystem* system,
                    FailureInjector* injector);

struct CampaignResult {
  std::vector<ChaosRunResult> runs;
  int failed = 0;
  std::string Summary() const;
};

// Runs `schedule_count` schedules generated from seeds base_seed, base_seed+1, ...
CampaignResult RunCampaign(uint64_t base_seed, int schedule_count,
                           const CampaignConfig& config);

}  // namespace sns

#endif  // SRC_CHAOS_CAMPAIGN_H_

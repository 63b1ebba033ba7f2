// Chaos-campaign harness tests: seeded schedules hold the cluster-wide
// invariants, replays are deterministic, a rival higher-epoch manager is demoted
// by epoch fencing, a manager partition is failed over through STONITH without
// ever running two managers, the invariant checker reports a second manager and
// a lost acknowledged write, the minimizer shrinks failing schedules to a
// replayable minimal repro, and the majority fails over while the minority-side
// manager is still alive.

#include <gtest/gtest.h>

#include "src/chaos/campaign.h"
#include "src/chaos/invariants.h"
#include "src/chaos/minimizer.h"
#include "src/cluster/failure_injector.h"
#include "src/services/transend/transend.h"
#include "src/util/logging.h"

namespace sns {
namespace {

CampaignConfig SmokeConfig() {
  CampaignConfig config;
  config.gen.horizon = Seconds(30);
  config.gen.min_events = 2;
  config.gen.max_events = 5;
  config.gen.min_outage = Seconds(5);
  config.gen.max_outage = Seconds(15);
  config.warmup = Seconds(10);
  config.quiesce_settle = Seconds(20);
  return config;
}

FaultSchedule ManagerPartitionSchedule(uint64_t seed) {
  FaultSchedule schedule;
  schedule.seed = seed;
  FaultEvent split;
  split.at = Seconds(5);
  split.kind = FaultKind::kPartitionManager;
  split.duration = Seconds(15);
  schedule.events.push_back(split);
  return schedule;
}

TEST(ChaosScheduleTest, GenerationIsDeterministicAndSorted) {
  ScheduleGenConfig gen;
  FaultSchedule a = GenerateSchedule(0xFEED, gen);
  FaultSchedule b = GenerateSchedule(0xFEED, gen);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].index, b.events[i].index);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
    if (i > 0) {
      EXPECT_LE(a.events[i - 1].at, a.events[i].at);
    }
  }
  EXPECT_EQ(a.ToScript(), b.ToScript());
  FaultSchedule c = GenerateSchedule(0xBEEF, gen);
  EXPECT_NE(a.ToScript(), c.ToScript());
}

// The acceptance campaign: 20 seeded schedules, every invariant holds.
TEST(ChaosCampaignTest, TwentySeededSchedulesHoldAllInvariants) {
  Logger::Get().set_min_level(LogLevel::kNone);
  CampaignResult result = RunCampaign(0xC4A05, 20, SmokeConfig());
  std::string failures;
  for (const ChaosRunResult& run : result.runs) {
    if (!run.passed()) {
      failures += run.Describe() + run.trace;
    }
  }
  EXPECT_EQ(result.failed, 0) << result.Summary() << failures;
  int64_t total_faults = 0;
  for (const ChaosRunResult& run : result.runs) {
    total_faults += run.faults_injected;
  }
  EXPECT_GT(total_faults, 20) << "campaign barely injected anything";
}

// Golden replay: pins the exact event sequence of the simulator core across
// rewrites — any divergence means event ordering changed, which breaks
// replay-based debugging across versions. Regenerate with tools/dump_chaos_trace
// ONLY for an intended behavior change, and say so in the commit message. The
// trace below was regenerated for the quorum/fencing PR (seed 0x601D, this
// SmokeConfig): the census carries a quorate count, the trace appends the
// fence-agent and membership-transition logs, and the final line reports the
// durable-write ledger — under quorum defaults this schedule now resolves by
// degrade-then-fence instead of the old split-brain-then-demote.
TEST(ChaosCampaignTest, ReplayMatchesGoldenCensusTrace) {
  Logger::Get().set_min_level(LogLevel::kNone);
  FaultSchedule schedule = GenerateSchedule(0x601D, SmokeConfig().gen);
  ChaosRunResult run = RunSchedule(schedule, SmokeConfig());
  EXPECT_TRUE(run.passed()) << run.Describe() << run.trace;
  const std::string kGolden =
      "t=0:00:10.000 managers=1 quorate=1 epoch=1\n"
      "t=0:00:15.791 beacon loss on group 1 for 0:00:13.385\n"
      "t=0:00:24.757 partition group 1 (1 nodes)\n"
      "t=0:00:38.679 heal group 1\n"
      "t=0:00:25.500 fence kill pid=1 node=0 (stale manager epoch 1, promoting epoch 2)\n"
      "t=0:00:00.000 regroup#1 node=0 members=13 votes=13/13 quorate=1\n"
      "t=0:00:10.526 regroup#2 node=5 members=13 votes=13/13 quorate=1\n"
      "t=0:00:25.010 regroup#3 node=0 members=1 votes=1/13 quorate=0\n"
      "t=0:00:25.010 manager epoch=1 degraded (votes 1/13)\n"
      "t=0:00:25.017 regroup#4 node=5 members=12 votes=12/13 quorate=1\n"
      "t=0:00:25.500 regroup#5 node=1 members=12 votes=12/13 quorate=1\n"
      "t=0:00:39.019 regroup#6 node=5 members=13 votes=13/13 quorate=1\n"
      "t=0:00:39.510 regroup#7 node=1 members=13 votes=13/13 quorate=1\n"
      "final managers=1 epoch=2 demotions=0 fence_kills=1 writes acked=88/90 lost=0 nonquorate=0\n";
  EXPECT_EQ(run.trace, kGolden);
}

TEST(ChaosCampaignTest, ReplayIsDeterministic) {
  Logger::Get().set_min_level(LogLevel::kNone);
  FaultSchedule schedule = GenerateSchedule(0xD0D0, SmokeConfig().gen);
  ChaosRunResult first = RunSchedule(schedule, SmokeConfig());
  ChaosRunResult second = RunSchedule(schedule, SmokeConfig());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.sent, second.sent);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.timeouts, second.timeouts);
  EXPECT_EQ(first.final_manager_epoch, second.final_manager_epoch);
  EXPECT_EQ(first.max_concurrent_managers, second.max_concurrent_managers);
}

// Split-brain created directly: a higher-epoch manager incarnation appears
// beside the incumbent. The incumbent hears the rival's beacon, demotes itself
// (self-crash) within a beacon period, and only the higher epoch survives.
TEST(ChaosCampaignTest, ManagerPartitionCreatesAndResolvesSplitBrain) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(3));

  SnsSystem* system = service.system();
  ManagerProcess* incumbent = system->manager();
  ASSERT_NE(incumbent, nullptr);
  ProcessId incumbent_pid = incumbent->pid();
  uint64_t rival_epoch = incumbent->epoch() + 1;
  system->cluster()->Spawn(system->worker_pool()[0],
                           std::make_unique<ManagerProcess>(system->config(), system,
                                                            rival_epoch,
                                                            system->membership()));
  ASSERT_EQ(LiveManagers(system).size(), 2u);

  service.sim()->RunFor(kManagerBeaconPeriod);
  EXPECT_EQ(system->cluster()->Find(incumbent_pid), nullptr);
  EXPECT_GE(system->metrics()->GetCounter("manager.demotions")->value(), 1);
  std::vector<ManagerProcess*> after = LiveManagers(system);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0]->epoch(), rival_epoch);
}

// The same partition under the shipped defaults never opens a split-brain
// window: the stranded incumbent degrades, and the majority fences it (STONITH)
// before promoting its successor.
TEST(ChaosCampaignTest, ManagerPartitionIsFencedWithoutSplitBrain) {
  Logger::Get().set_min_level(LogLevel::kNone);
  ChaosRunResult run = RunSchedule(ManagerPartitionSchedule(0x5B17), SmokeConfig());
  EXPECT_TRUE(run.passed()) << run.Describe() << run.trace;
  EXPECT_EQ(run.max_concurrent_managers, 1) << run.trace;
  EXPECT_GE(run.fence_kills, 1) << run.trace;
  EXPECT_GE(run.final_manager_epoch, 2u);
}

// The checker itself: a hand-spawned second manager incarnation and an
// acknowledged write missing from the store are both reported.
TEST(ChaosInvariantTest, ReportsSecondManagerAndLostAckedWrite) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DefaultTranSendOptions());
  service.Start();
  service.sim()->RunFor(Seconds(3));
  SnsSystem* system = service.system();
  ASSERT_TRUE(CheckInvariantsAtQuiesce(system, {}).ok());

  system->cluster()->Spawn(system->worker_pool()[0],
                           std::make_unique<ManagerProcess>(system->config(), system,
                                                            system->manager_epoch() + 1,
                                                            system->membership()));
  ProfileWriteLedger ledger;
  ledger.entries.push_back({"never-stored", "qpref", "v0", /*acked=*/true});

  InvariantReport report = CheckInvariantsAtQuiesce(system, {}, &ledger);
  bool split_brain = false;
  bool lost_write = false;
  for (const InvariantViolation& v : report.violations) {
    split_brain |= v.invariant == "exactly-one-manager";
    lost_write |= v.invariant == "acked-write-durable";
  }
  EXPECT_TRUE(split_brain) << report.ToString();
  EXPECT_TRUE(lost_write) << report.ToString();
}

TEST(ChaosMinimizerTest, ShrinksFailingScheduleToMinimalRepro) {
  Logger::Get().set_min_level(LogLevel::kNone);
  // A front end partitioned away for good: the manager relaunches it on the
  // majority side while the stranded incarnation lives on, so the roster never
  // converges. That event alone fails the run.
  FaultSchedule schedule;
  schedule.seed = 0x31;
  FaultEvent split;
  split.at = Seconds(5);
  split.kind = FaultKind::kPartitionFrontEnd;
  split.duration = Seconds(3600);
  schedule.events.push_back(split);
  // Pad with noise the system masks on its own; the minimizer should strip it.
  FaultEvent crash;
  crash.at = Seconds(2);
  crash.kind = FaultKind::kCrashWorker;
  schedule.events.insert(schedule.events.begin(), crash);
  FaultEvent loss;
  loss.at = Seconds(12);
  loss.kind = FaultKind::kBeaconLoss;
  loss.duration = Seconds(2);
  schedule.events.push_back(loss);
  FaultEvent late_crash;
  late_crash.at = Seconds(20);
  late_crash.kind = FaultKind::kCrashWorker;
  late_crash.index = 3;
  schedule.events.push_back(late_crash);

  MinimizeResult result = MinimizeSchedule(schedule, SmokeConfig(), /*max_runs=*/24);
  EXPECT_TRUE(result.still_fails);
  ASSERT_EQ(result.minimal.events.size(), 1u) << result.Repro();
  EXPECT_EQ(result.minimal.events[0].kind, FaultKind::kPartitionFrontEnd);
  EXPECT_FALSE(result.failure.ok());
  EXPECT_NE(result.failure.ToString().find("roster-convergence"), std::string::npos)
      << result.Repro();
  EXPECT_NE(result.Repro().find("partition_front_end"), std::string::npos);
  EXPECT_GT(result.runs_used, 1);
}

TEST(ChaosMinimizerTest, PassingScheduleIsReportedAsNotFailing) {
  Logger::Get().set_min_level(LogLevel::kNone);
  FaultSchedule schedule;
  schedule.seed = 0x9;
  FaultEvent crash;
  crash.at = Seconds(3);
  crash.kind = FaultKind::kCrashWorker;
  schedule.events.push_back(crash);
  MinimizeResult result = MinimizeSchedule(schedule, SmokeConfig(), /*max_runs=*/4);
  EXPECT_FALSE(result.still_fails);
  EXPECT_EQ(result.runs_used, 1);
}

// System-level regression for the relaunch fix: the majority side must fail over
// WHILE the minority-side incumbent is still alive (before the fix, the
// launcher's Find()-based idempotence check blocked failover for the whole
// outage). The live incumbent is shot through the fence device at failover, so
// the pair never coexists and exactly the higher epoch survives the heal.
TEST(PartitionToleranceTest, MajorityFailsOverWhileMinorityManagerAlive) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  TranSendService service(options);
  service.Start();
  service.sim()->RunFor(Seconds(3));

  SnsSystem* system = service.system();
  ManagerProcess* incumbent = system->manager();
  ASSERT_NE(incumbent, nullptr);
  EXPECT_EQ(incumbent->epoch(), 1u);
  NodeId manager_node = incumbent->node();
  ProcessId incumbent_pid = incumbent->pid();

  FailureInjector injector(system->cluster(), system->san());
  SimTime now = service.sim()->now();
  injector.PartitionAt(now + Seconds(1), {manager_node}, now + Seconds(20));

  // Mid-partition: the majority's front ends detected beacon silence and failed
  // over even though the incumbent still ran across the split; the fence device
  // killed that live incumbent as a stale epoch-1 manager.
  service.sim()->RunFor(Seconds(12));
  EXPECT_EQ(system->manager_epoch(), 2u) << "failover blocked by unreachable incumbent";
  EXPECT_EQ(system->cluster()->Find(incumbent_pid), nullptr);
  EXPECT_GE(system->metrics()->GetCounter("fencing.kills")->value(), 1);
  ASSERT_FALSE(system->fence_agent()->log().empty());
  EXPECT_NE(system->fence_agent()->log()[0].find("stale manager epoch 1"), std::string::npos)
      << system->fence_agent()->log()[0];
  std::vector<ManagerProcess*> during = LiveManagers(system);
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0]->epoch(), 2u);
  EXPECT_NE(during[0]->node(), manager_node);

  // Post-heal: exactly the higher epoch remains.
  service.sim()->RunFor(Seconds(15));
  std::vector<ManagerProcess*> after = LiveManagers(system);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0]->epoch(), 2u);
}

}  // namespace
}  // namespace sns

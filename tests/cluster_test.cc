// Tests for the cluster substrate: process lifecycle, CPU scheduling, node
// failures, and failure injection.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/failure_injector.h"
#include "src/net/san.h"
#include "src/sim/simulator.h"

namespace sns {
namespace {

struct EchoPayload : Payload {
  int value = 0;
};

// A process that records lifecycle events and echoes messages back.
class TestProcess : public Process {
 public:
  explicit TestProcess(std::vector<std::string>* log) : Process("test"), log_(log) {}

  void OnStart() override { log_->push_back("start"); }
  void OnStop() override { log_->push_back("stop"); }
  void OnMessage(const Message& msg) override {
    log_->push_back("msg:" +
                    std::to_string(static_cast<const EchoPayload&>(*msg.payload).value));
  }

  using Process::After;
  using Process::RunOnCpu;
  using Process::Send;

 private:
  std::vector<std::string>* log_;
};

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : san_(&sim_, SanConfig{}), cluster_(&sim_, &san_) {}

  Simulator sim_;
  San san_;
  Cluster cluster_;
};

TEST_F(ClusterTest, SpawnAssignsIdentityAndStarts) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  ASSERT_NE(pid, kInvalidProcess);
  Process* p = cluster_.Find(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->node(), node);
  EXPECT_TRUE(p->endpoint().valid());
  EXPECT_TRUE(p->running());
  EXPECT_EQ(log, (std::vector<std::string>{"start"}));
  EXPECT_EQ(cluster_.ProcessCountOnNode(node), 1);
}

TEST_F(ClusterTest, SpawnOnDownNodeFails) {
  NodeId node = cluster_.AddNode();
  cluster_.CrashNode(node);
  std::vector<std::string> log;
  EXPECT_EQ(cluster_.Spawn(node, std::make_unique<TestProcess>(&log)), kInvalidProcess);
}

TEST_F(ClusterTest, MessagesAreDeliveredToProcess) {
  NodeId a = cluster_.AddNode();
  NodeId b = cluster_.AddNode();
  std::vector<std::string> log_a;
  std::vector<std::string> log_b;
  ProcessId pid_a = cluster_.Spawn(a, std::make_unique<TestProcess>(&log_a));
  ProcessId pid_b = cluster_.Spawn(b, std::make_unique<TestProcess>(&log_b));

  auto* sender = static_cast<TestProcess*>(cluster_.Find(pid_a));
  Message msg;
  msg.dst = cluster_.Find(pid_b)->endpoint();
  msg.type = 1;
  msg.size_bytes = 64;
  auto payload = std::make_shared<EchoPayload>();
  payload->value = 5;
  msg.payload = payload;
  sender->Send(std::move(msg));
  sim_.Run();
  EXPECT_EQ(log_b, (std::vector<std::string>{"start", "msg:5"}));
}

TEST_F(ClusterTest, StopInvokesOnStopButCrashDoesNot) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log1;
  std::vector<std::string> log2;
  ProcessId p1 = cluster_.Spawn(node, std::make_unique<TestProcess>(&log1));
  ProcessId p2 = cluster_.Spawn(node, std::make_unique<TestProcess>(&log2));
  cluster_.Stop(p1);
  cluster_.Crash(p2);
  EXPECT_EQ(log1, (std::vector<std::string>{"start", "stop"}));
  EXPECT_EQ(log2, (std::vector<std::string>{"start"}));  // No "stop" on crash.
  EXPECT_EQ(cluster_.Find(p1), nullptr);
  EXPECT_EQ(cluster_.Find(p2), nullptr);
  EXPECT_EQ(cluster_.total_crashes(), 1);
}

TEST_F(ClusterTest, TimersDieWithProcess) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  auto* p = static_cast<TestProcess*>(cluster_.Find(pid));
  bool fired = false;
  p->After(Seconds(1), [&fired] { fired = true; });
  cluster_.Crash(pid);
  sim_.RunFor(Seconds(5));
  EXPECT_FALSE(fired);
}

TEST_F(ClusterTest, CpuCompletionsDieWithProcess) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  auto* p = static_cast<TestProcess*>(cluster_.Find(pid));
  bool fired = false;
  p->RunOnCpu(Seconds(1), [&fired] { fired = true; });
  cluster_.Crash(pid);
  sim_.RunFor(Seconds(5));
  EXPECT_FALSE(fired);
}

TEST_F(ClusterTest, CpuIsFifoPerNode) {
  NodeId node = cluster_.AddNode();
  SimTime first = 0;
  SimTime second = 0;
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(1), [&] { first = sim_.now(); });
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(1), [&] { second = sim_.now(); });
  sim_.Run();
  EXPECT_EQ(first, Seconds(1));
  EXPECT_EQ(second, Seconds(2));  // Serialized on one CPU.
  EXPECT_NEAR(cluster_.CpuUtilization(node), 1.0, 1e-9);
}

TEST_F(ClusterTest, CpuSpeedScalesWork) {
  NodeConfig slow;
  slow.speed = 0.5;
  NodeId node = cluster_.AddNode(slow);
  SimTime done = 0;
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(1), [&] { done = sim_.now(); });
  sim_.Run();
  EXPECT_EQ(done, Seconds(2));
}

TEST_F(ClusterTest, CpuBacklogReflectsQueuedWork) {
  NodeId node = cluster_.AddNode();
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(3), [] {});
  EXPECT_NEAR(cluster_.CpuBacklogSeconds(node), 3.0, 1e-9);
}

TEST_F(ClusterTest, IntervalCpuUtilizationIsOneWhileBackloggedAndZeroWhileIdle) {
  NodeId node = cluster_.AddNode();
  Cluster::CpuMark mark = cluster_.MarkCpu(node);
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(1), [] {});
  std::vector<double> ticks;
  for (int i = 1; i <= 8; ++i) {
    sim_.RunUntil(Milliseconds(250 * i));
    ticks.push_back(cluster_.CpuUtilizationSince(node, &mark));
  }
  EXPECT_EQ(ticks, (std::vector<double>{1, 1, 1, 1, 0, 0, 0, 0}));
  EXPECT_NEAR(cluster_.CpuUtilization(node), 0.5, 1e-9);  // The lifetime mean.

  // A backlog a crash drops was charged but never ran: it is not spent time.
  cluster_.RunOnCpu(node, kInvalidProcess, Seconds(1), [] {});
  sim_.RunUntil(Milliseconds(2250));
  EXPECT_EQ(cluster_.CpuUtilizationSince(node, &mark), 1.0);
  cluster_.CrashNode(node);
  EXPECT_EQ(cluster_.CpuTimeSpent(node), Milliseconds(1250));
  sim_.RunUntil(Milliseconds(2500));
  EXPECT_EQ(cluster_.CpuUtilizationSince(node, &mark), 0.0);
  EXPECT_EQ(cluster_.CpuUtilizationSince(node, &mark), 0.0);  // No time passed.
  // The lifetime mean keeps counting work when it is queued, dropped or not.
  EXPECT_NEAR(cluster_.CpuUtilization(node), 2.0 / 2.5, 1e-9);
}

TEST_F(ClusterTest, IntervalCpuUtilizationIsAShareOfEveryCpu) {
  NodeId node = cluster_.AddNode();
  Cluster::CpuMark mark = cluster_.MarkCpu(node);
  cluster_.RunOnCpu(node, kInvalidProcess, Milliseconds(250), [] {});
  sim_.RunUntil(Milliseconds(500));
  double util = cluster_.CpuUtilizationSince(node, &mark);
  EXPECT_EQ(util, 0.5);  // The CPU was busy for half the interval.
}

TEST_F(ClusterTest, NodeCrashKillsProcessesAndRestartComesBackEmpty) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  cluster_.CrashNode(node);
  EXPECT_FALSE(cluster_.NodeUp(node));
  EXPECT_EQ(cluster_.Find(pid), nullptr);
  EXPECT_EQ(log, (std::vector<std::string>{"start"}));  // Crashed, not stopped.

  cluster_.RestartNode(node);
  EXPECT_TRUE(cluster_.NodeUp(node));
  EXPECT_EQ(cluster_.ProcessCountOnNode(node), 0);
  // Fresh spawns work again.
  EXPECT_NE(cluster_.Spawn(node, std::make_unique<TestProcess>(&log)), kInvalidProcess);
}

TEST_F(ClusterTest, UpNodesFiltersOverflowAndDown) {
  NodeId a = cluster_.AddNode();
  NodeConfig overflow;
  overflow.overflow_pool = true;
  NodeId b = cluster_.AddNode(overflow);
  NodeId c = cluster_.AddNode();
  cluster_.CrashNode(c);
  auto dedicated = cluster_.UpNodes(/*include_overflow=*/false);
  EXPECT_EQ(dedicated, (std::vector<NodeId>{a}));
  auto all = cluster_.UpNodes(/*include_overflow=*/true);
  EXPECT_EQ(all, (std::vector<NodeId>{a, b}));
  EXPECT_TRUE(cluster_.IsOverflowNode(b));
  EXPECT_FALSE(cluster_.IsOverflowNode(a));
}

TEST_F(ClusterTest, FindByEndpoint) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  Process* p = cluster_.Find(pid);
  EXPECT_EQ(cluster_.FindByEndpoint(p->endpoint()), p);
  EXPECT_EQ(cluster_.FindByEndpoint(Endpoint{99, 99}), nullptr);
}

TEST_F(ClusterTest, FailureInjectorScriptedCrashes) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  ProcessId pid = cluster_.Spawn(node, std::make_unique<TestProcess>(&log));
  FailureInjector injector(&cluster_, &san_);
  injector.CrashProcessAt(Seconds(5), pid);
  sim_.RunFor(Seconds(4));
  EXPECT_NE(cluster_.Find(pid), nullptr);
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(cluster_.Find(pid), nullptr);
  EXPECT_EQ(injector.injected_count(), 1);
}

TEST_F(ClusterTest, FailureInjectorPartitionAndHeal) {
  cluster_.AddNode();
  cluster_.AddNode();
  FailureInjector injector(&cluster_, &san_);
  injector.PartitionAt(Seconds(1), {1}, Seconds(3));
  sim_.RunFor(Seconds(2));
  EXPECT_FALSE(san_.Reachable(0, 1));
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(san_.Reachable(0, 1));
}

TEST_F(ClusterTest, RandomCrashesRespectDeadline) {
  NodeId node = cluster_.AddNode();
  std::vector<std::string> log;
  // Spawn a fleet of victims.
  std::vector<ProcessId> pids;
  for (int i = 0; i < 20; ++i) {
    pids.push_back(cluster_.Spawn(node, std::make_unique<TestProcess>(&log)));
  }
  FailureInjector injector(&cluster_, &san_);
  Rng rng(99);
  size_t next = 0;
  injector.RandomProcessCrashes(&rng, Seconds(1), Seconds(10), [&]() -> ProcessId {
    return next < pids.size() ? pids[next++] : kInvalidProcess;
  });
  sim_.RunUntil(Seconds(60));
  EXPECT_GT(injector.injected_count(), 2);
  // No crashes scheduled past the deadline: count is frozen afterward.
  int64_t count = injector.injected_count();
  sim_.RunFor(Seconds(60));
  EXPECT_EQ(injector.injected_count(), count);
}

}  // namespace
}  // namespace sns

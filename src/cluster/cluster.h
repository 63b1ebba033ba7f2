// The cluster substrate: nodes (dedicated and overflow pools), CPU scheduling, and
// process lifecycle management.
//
// Stands in for the paper's physical NOW: commodity nodes with their own CPUs,
// busses and disks, connected only through the SAN. Supports the operations the SNS
// layer builds on: spawning a worker on any node with spare cycles (§1.3 "a worker
// ... can run anywhere that significant CPU cycles are available"), recruiting
// overflow machines during bursts (§2.2.3), and killing processes or whole nodes to
// exercise fault masking (§4.5's experiment manually kills distillers).

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/process.h"
#include "src/net/san.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"

namespace sns {

struct NodeConfig {
  double speed = 1.0;    // Relative CPU speed; cpu_time is divided by this.
  bool overflow_pool = false;  // Overflow machines are not dedicated (§2.2.3).
  // Nodes reserved for infrastructure (front ends, caches, the origin gateway) are
  // not eligible targets when the manager places new workers.
  bool workers_allowed = true;
  std::optional<LinkConfig> link;  // Overrides the SAN default when set.
};

class Cluster {
 public:
  Cluster(Simulator* sim, San* san);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Nodes ---------------------------------------------------------------
  NodeId AddNode(const NodeConfig& config = NodeConfig{});
  std::vector<NodeId> AddNodes(int count, const NodeConfig& config = NodeConfig{});
  bool NodeUp(NodeId node) const;
  bool IsOverflowNode(NodeId node) const;
  bool WorkersAllowed(NodeId node) const;
  std::vector<NodeId> AllNodes() const;
  std::vector<NodeId> UpNodes(bool include_overflow) const;

  // Number of live processes hosted on a node.
  int ProcessCountOnNode(NodeId node) const;

  // Fraction of time the node's CPU was busy over [0, now], counting work
  // when it is queued.
  double CpuUtilization(NodeId node) const;

  // CPU time the node's CPU has spent on work up to now: the work queued,
  // less its unfinished backlog and less the backlogs that crashes dropped.
  SimDuration CpuTimeSpent(NodeId node) const;
  // A point to measure CPU utilization from (see CpuUtilizationSince).
  struct CpuMark {
    SimTime at = 0;
    SimDuration spent = 0;  // CpuTimeSpent at `at`.
  };
  CpuMark MarkCpu(NodeId node) const { return {sim_->now(), CpuTimeSpent(node)}; }
  // The share of the node's CPU capacity spent on work between `*mark` and
  // now, in [0, 1] (0 if no time passed); then moves `*mark` to now. The
  // flight recorder's per-interval node.N.cpu_util.
  double CpuUtilizationSince(NodeId node, CpuMark* mark) const;

  // --- Processes -------------------------------------------------------------
  // Starts `process` on `node`; assigns a pid and a fresh endpoint, binds it to the
  // SAN and invokes OnStart. Returns kInvalidProcess if the node is absent or down.
  ProcessId Spawn(NodeId node, std::unique_ptr<Process> process);

  // Graceful stop: OnStop runs, then the endpoint unbinds.
  void Stop(ProcessId pid);

  // Crash: the process vanishes without OnStop; pending timers and CPU work are
  // discarded; its endpoint unbinds (reliable senders fail fast, §3.1.3).
  void Crash(ProcessId pid);

  Process* Find(ProcessId pid) const;
  // The process bound to `ep`, if any.
  Process* FindByEndpoint(const Endpoint& ep) const;
  std::vector<ProcessId> ProcessesOnNode(NodeId node) const;

  // --- Node-level failures ------------------------------------------------------
  // Power-fails a node: all its processes crash; the SAN stops carrying its traffic.
  void CrashNode(NodeId node);
  // Brings a crashed node back up (empty; processes must be respawned).
  void RestartNode(NodeId node);

  // --- CPU ------------------------------------------------------------------
  // Charges `cpu_time` of CPU to `node` on behalf of process `owner` (may be
  // kInvalidProcess for systemic work); runs `done` on completion unless the owner
  // died or the node crashed in the meantime.
  void RunOnCpu(NodeId node, ProcessId owner, SimDuration cpu_time, SimTask done);

  // Instantaneous CPU backlog of the node in seconds of queued work.
  double CpuBacklogSeconds(NodeId node) const;

  Simulator* sim() { return sim_; }
  San* san() { return san_; }

  // Shared observability plane: one metrics registry and one trace collector for
  // the whole cluster, outliving any individual process (paper §3.1.7 monitor).
  MetricsRegistry* metrics() { return &metrics_; }
  TraceCollector* tracer() { return &tracer_; }

  int64_t total_spawns() const { return total_spawns_; }
  int64_t total_crashes() const { return total_crashes_; }

 private:
  struct NodeState {
    NodeConfig config;
    bool up = true;
    uint64_t incarnation = 0;  // Bumped on crash so stale CPU completions drop.
    SimTime cpu_busy_until = 0;  // Every node has one CPU, a FIFO queue.
    SimDuration cpu_busy_total = 0;    // Every CPU-time charge, when queued.
    SimDuration cpu_dropped_total = 0;  // Queued work that node crashes dropped.
    std::vector<ProcessId> processes;
  };

  NodeState* GetNode(NodeId node);
  const NodeState* GetNode(NodeId node) const;
  // Queued CPU work not yet run: max(0, cpu_busy_until - now).
  SimDuration CpuBacklog(const NodeState& state) const;
  void RemoveProcess(ProcessId pid, bool graceful);

  Simulator* sim_;
  San* san_;
  MetricsRegistry metrics_;
  TraceCollector tracer_;
  NodeId next_node_ = 0;
  Port next_port_ = 1;
  ProcessId next_pid_ = 1;
  std::map<NodeId, NodeState> nodes_;
  std::map<ProcessId, std::unique_ptr<Process>> processes_;
  int64_t total_spawns_ = 0;
  int64_t total_crashes_ = 0;
};

}  // namespace sns

#endif  // SRC_CLUSTER_CLUSTER_H_

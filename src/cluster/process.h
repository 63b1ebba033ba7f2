// The process abstraction: a software component pinned to one cluster node.
//
// Paper §2.1: "each component in the diagram is confined to one node" — front ends,
// the manager, workers, caches and the monitor are all Processes. A process owns an
// endpoint on the SAN, can charge work to its node's CPU, set timers, and crash
// without taking the system down (worker isolation, §2.2.5). Timers and pending CPU
// completions die with the process.

#ifndef SRC_CLUSTER_PROCESS_H_
#define SRC_CLUSTER_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/message.h"
#include "src/net/san.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace sns {

class Cluster;
class MetricsRegistry;

using ProcessId = int64_t;
constexpr ProcessId kInvalidProcess = -1;

class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // --- Lifecycle hooks (override in subclasses) -------------------------------
  // Called once when the process starts running on its node.
  virtual void OnStart() {}
  // Called for each message delivered to this process's endpoint.
  virtual void OnMessage(const Message& msg) { (void)msg; }
  // Called on graceful stop only. A crash (or node failure) skips this — all state
  // is simply gone, which is exactly the regime BASE soft state is designed for.
  virtual void OnStop() {}

  // --- Identity ----------------------------------------------------------------
  const std::string& name() const { return name_; }
  ProcessId pid() const { return pid_; }
  NodeId node() const { return endpoint_.node; }
  const Endpoint& endpoint() const { return endpoint_; }
  bool running() const { return running_; }

 protected:
  Simulator* sim() const;
  San* san() const;
  Cluster* cluster() const { return cluster_; }

  // --- Observability -------------------------------------------------------------
  // Shared cluster-wide instruments; valid once the process is spawned.
  MetricsRegistry* metrics() const;
  TraceCollector* tracer() const;

  // Opens a new root trace (e.g. a client issuing a request).
  TraceContext StartTrace() const;
  // Derives this process's span context from an incoming message's context;
  // invalid in, invalid out.
  TraceContext ChildSpan(const TraceContext& parent) const;
  // Records a finished span for this process: component/node filled in, end time
  // is the current sim time. No-op for invalid contexts. The span keeps views of
  // `operation` and `outcome`, so both must be string literals (SpanRecord).
  void RecordSpan(const TraceContext& ctx, std::string_view operation, SimTime start,
                  std::string_view outcome) const;

  // Sends from this process's endpoint. msg.src is filled in automatically.
  void Send(Message msg, San::SendOptions opts = {});
  void SendMulticast(McastGroup group, Message msg);
  void JoinGroup(McastGroup group);
  void LeaveGroup(McastGroup group);

  // Runs `done` once the node's CPU has executed `cpu_time` of work for this
  // process. The node CPU is a FIFO queue shared by all processes on the node; this
  // is where distillation cost, TCP/kernel per-request overhead, etc. are charged.
  // If the process dies first, `done` never runs.
  void RunOnCpu(SimDuration cpu_time, SimTask done);

  // One-shot timer owned by this process; auto-cancelled if the process dies.
  EventId After(SimDuration delay, SimTask fn);
  void CancelTimer(EventId id);

  // Self-demotion: crashes this process on the next event. Crash destroys the
  // process object, so it cannot run inside the dispatch that decided it; the
  // deferred crash is a no-op if something else killed the process first.
  void CrashSelf();

 private:
  friend class Cluster;

  std::string name_;
  ProcessId pid_ = kInvalidProcess;
  Endpoint endpoint_;
  Cluster* cluster_ = nullptr;
  bool running_ = false;
  std::string_view span_component_;  // name_, interned by the cluster's tracer.
  // Ids of this process's timers: every pending one, plus fired or cancelled ones
  // not yet compacted away (After drops those when the vector is full).
  std::vector<EventId> pending_timers_;
};

}  // namespace sns

#endif  // SRC_CLUSTER_PROCESS_H_

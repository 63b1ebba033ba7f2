#include "src/cluster/cluster.h"

#include <algorithm>

#include "src/util/logging.h"

namespace sns {

Cluster::Cluster(Simulator* sim, San* san) : sim_(sim), san_(san) {}

Cluster::~Cluster() {
  // Unbind remaining endpoints so the SAN holds no dangling handlers.
  for (auto& [pid, process] : processes_) {
    if (process->running_) {
      san_->Unbind(process->endpoint_);
    }
  }
}

NodeId Cluster::AddNode(const NodeConfig& config) {
  NodeId id = next_node_++;
  NodeState state;
  state.config = config;
  nodes_[id] = std::move(state);
  if (config.link.has_value()) {
    san_->AddNode(id, *config.link);
  } else {
    san_->AddNode(id);
  }
  return id;
}

std::vector<NodeId> Cluster::AddNodes(int count, const NodeConfig& config) {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    ids.push_back(AddNode(config));
  }
  return ids;
}

bool Cluster::NodeUp(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state != nullptr && state->up;
}

bool Cluster::IsOverflowNode(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state != nullptr && state->config.overflow_pool;
}

bool Cluster::WorkersAllowed(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state != nullptr && state->config.workers_allowed;
}

std::vector<NodeId> Cluster::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, state] : nodes_) {
    out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Cluster::UpNodes(bool include_overflow) const {
  std::vector<NodeId> out;
  for (const auto& [id, state] : nodes_) {
    if (state.up && (include_overflow || !state.config.overflow_pool)) {
      out.push_back(id);
    }
  }
  return out;
}

int Cluster::ProcessCountOnNode(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state == nullptr ? 0 : static_cast<int>(state->processes.size());
}

double Cluster::CpuUtilization(NodeId node) const {
  const NodeState* state = GetNode(node);
  SimTime now = sim_->now();
  if (state == nullptr || now <= 0) {
    return 0.0;
  }
  return std::min(static_cast<double>(state->cpu_busy_total) / static_cast<double>(now), 1.0);
}

ProcessId Cluster::Spawn(NodeId node, std::unique_ptr<Process> process) {
  NodeState* state = GetNode(node);
  if (state == nullptr || !state->up) {
    return kInvalidProcess;
  }
  ProcessId pid = next_pid_++;
  Process* p = process.get();
  p->pid_ = pid;
  p->endpoint_ = Endpoint{node, next_port_++};
  p->cluster_ = this;
  p->running_ = true;
  p->span_component_ = tracer_.Intern(p->name_);
  state->processes.push_back(pid);
  processes_[pid] = std::move(process);
  san_->Bind(p->endpoint_, [this, pid](const Message& msg) {
    Process* target = Find(pid);
    if (target != nullptr && target->running_) {
      target->OnMessage(msg);
    }
  });
  ++total_spawns_;
  SNS_LOG(kDebug, "cluster") << "spawned " << p->name() << " pid=" << pid
                             << " at " << p->endpoint().ToString();
  p->OnStart();
  return pid;
}

void Cluster::Stop(ProcessId pid) { RemoveProcess(pid, /*graceful=*/true); }

void Cluster::Crash(ProcessId pid) {
  ++total_crashes_;
  RemoveProcess(pid, /*graceful=*/false);
}

void Cluster::RemoveProcess(ProcessId pid, bool graceful) {
  auto it = processes_.find(pid);
  if (it == processes_.end()) {
    return;
  }
  Process* p = it->second.get();
  if (graceful && p->running_) {
    p->OnStop();
  }
  p->running_ = false;
  for (EventId timer : p->pending_timers_) {
    sim_->Cancel(timer);
  }
  p->pending_timers_.clear();
  san_->Unbind(p->endpoint_);
  NodeState* node = GetNode(p->endpoint_.node);
  if (node != nullptr) {
    auto& procs = node->processes;
    procs.erase(std::remove(procs.begin(), procs.end(), pid), procs.end());
  }
  SNS_LOG(kDebug, "cluster") << (graceful ? "stopped " : "crashed ") << p->name()
                             << " pid=" << pid;
  processes_.erase(it);
}

Process* Cluster::Find(ProcessId pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

Process* Cluster::FindByEndpoint(const Endpoint& ep) const {
  for (const auto& [pid, process] : processes_) {
    if (process->endpoint_ == ep) {
      return process.get();
    }
  }
  return nullptr;
}

std::vector<ProcessId> Cluster::ProcessesOnNode(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state == nullptr ? std::vector<ProcessId>{} : state->processes;
}

void Cluster::CrashNode(NodeId node) {
  NodeState* state = GetNode(node);
  if (state == nullptr || !state->up) {
    return;
  }
  state->up = false;
  ++state->incarnation;
  san_->SetNodeUp(node, false);
  // Crash processes; copy the list since Crash mutates it.
  std::vector<ProcessId> victims = state->processes;
  for (ProcessId pid : victims) {
    Crash(pid);
  }
  // Queued CPU work is abandoned: it was charged but never runs.
  state->cpu_dropped_total += CpuBacklog(*state);
  state->cpu_busy_until = sim_->now();
  SNS_LOG(kInfo, "cluster") << "node " << node << " crashed";
}

void Cluster::RestartNode(NodeId node) {
  NodeState* state = GetNode(node);
  if (state == nullptr || state->up) {
    return;
  }
  state->up = true;
  san_->SetNodeUp(node, true);
  SNS_LOG(kInfo, "cluster") << "node " << node << " restarted";
}

void Cluster::RunOnCpu(NodeId node, ProcessId owner, SimDuration cpu_time, SimTask done) {
  NodeState* state = GetNode(node);
  if (state == nullptr || !state->up) {
    return;
  }
  if (cpu_time < 0) {
    cpu_time = 0;
  }
  auto scaled = static_cast<SimDuration>(static_cast<double>(cpu_time) / state->config.speed);
  SimTime start = std::max(sim_->now(), state->cpu_busy_until);
  SimTime finish = start + scaled;
  state->cpu_busy_until = finish;
  state->cpu_busy_total += scaled;
  uint64_t incarnation = state->incarnation;
  auto completion = [this, node, owner, incarnation, done = std::move(done)]() mutable {
    NodeState* s = GetNode(node);
    if (s == nullptr || !s->up || s->incarnation != incarnation) {
      return;  // Node crashed while the work was queued.
    }
    if (owner != kInvalidProcess) {
      Process* p = Find(owner);
      if (p == nullptr || !p->running_) {
        return;  // Owner died; its completion is meaningless.
      }
    }
    done();
  };
  static_assert(sizeof(completion) <= SimCallback::kInlineCapacity);
  sim_->ScheduleAt(finish, std::move(completion));
}

SimDuration Cluster::CpuBacklog(const NodeState& state) const {
  return std::max<SimDuration>(state.cpu_busy_until - sim_->now(), 0);
}

double Cluster::CpuBacklogSeconds(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state == nullptr ? 0.0 : ToSeconds(CpuBacklog(*state));
}

SimDuration Cluster::CpuTimeSpent(NodeId node) const {
  const NodeState* state = GetNode(node);
  if (state == nullptr) {
    return 0;
  }
  return state->cpu_busy_total - state->cpu_dropped_total - CpuBacklog(*state);
}

double Cluster::CpuUtilizationSince(NodeId node, CpuMark* mark) const {
  const NodeState* state = GetNode(node);
  CpuMark now = MarkCpu(node);
  double util = 0.0;
  if (state != nullptr && now.at > mark->at) {
    util = static_cast<double>(now.spent - mark->spent) / static_cast<double>(now.at - mark->at);
  }
  *mark = now;
  return util;
}

Cluster::NodeState* Cluster::GetNode(NodeId node) {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

const Cluster::NodeState* Cluster::GetNode(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

}  // namespace sns

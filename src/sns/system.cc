#include "src/sns/system.h"

#include "src/cluster/failure_injector.h"
#include "src/obs/critical_path.h"
#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

SnsSystem::SnsSystem(const SnsConfig& config, const SystemTopology& topology)
    : config_(config),
      topology_(topology),
      san_(&sim_, topology.san),
      cluster_(&sim_, &san_) {
  san_.set_event_log(&event_log_);
  san_.BindMetrics(cluster_.metrics());
  quorum_disk_ = std::make_unique<QuorumDisk>(&quorum_disk_store_, kQuorumDiskLease);
  membership_ = std::make_unique<MembershipService>(&san_, quorum_disk_.get());
  fence_agent_ = std::make_unique<FenceAgent>(&cluster_);
  // Quorum regroups (from Start() on) and fence kills land on the same fault
  // timeline as injected failures, so the availability ledger (and its rendered
  // timeline) annotates yield dips with the transition that caused or resolved
  // them.
  fence_agent_->set_event_sink(
      [this](SimTime at, const std::string& what) { event_log_.RecordFault({at, what}); });
  availability_.BindMetrics(cluster_.metrics());
}

SnsSystem::~SnsSystem() = default;

void SnsSystem::AttachFailureInjector(FailureInjector* injector) {
  injector->set_event_sink(
      [this](SimTime at, const std::string& what) { event_log_.RecordFault({at, what}); });
}

void SnsSystem::AddNodeProbes(NodeId node) {
  if (recorder_ == nullptr) {
    return;
  }
  // Per-interval utilization: the share of CPU time spent on work finished
  // since the previous tick (Cluster::CpuUtilization is the lifetime mean).
  recorder_->AddProbe(StrFormat("node.%d.cpu_util", node),
                      [this, node, mark = cluster_.MarkCpu(node)]() mutable {
                        return cluster_.CpuUtilizationSince(node, &mark);
                      });
  recorder_->AddProbe(StrFormat("node.%d.cpu_backlog_s", node),
                      [this, node] { return cluster_.CpuBacklogSeconds(node); });
}

void SnsSystem::SeedProfile(const UserProfile& profile) {
  profile_store_.Put(profile.user_id(), profile.Serialize());
}

void SnsSystem::Start() {
  if (started_) {
    return;
  }
  started_ = true;

  // --- Node layout (one component class per node, Figure 1). ---
  NodeConfig infra;
  infra.workers_allowed = false;
  manager_node_ = cluster_.AddNode(infra);

  for (int i = 0; i < topology_.front_ends; ++i) {
    NodeConfig fe = infra;
    fe.link = topology_.fe_link;
    fe_nodes_.push_back(cluster_.AddNode(fe));
  }
  for (int i = 0; i < topology_.cache_nodes; ++i) {
    cache_nodes_.push_back(cluster_.AddNode(infra));
  }
  profile_db_node_ = cluster_.AddNode(infra);
  if (topology_.with_origin) {
    NodeConfig origin = infra;
    origin.link = topology_.origin_link;
    origin_node_ = cluster_.AddNode(origin);
  }
  worker_pool_ = cluster_.AddNodes(topology_.worker_pool_nodes, NodeConfig{});
  NodeConfig overflow;
  overflow.overflow_pool = true;
  overflow_pool_ = cluster_.AddNodes(topology_.overflow_nodes, overflow);

  // --- Membership: every infrastructure node carries votes (cman's per-node
  // `votes`). Client nodes added later by services never register votes, so load
  // generators cannot tip a quorum. The initial renewing regroup from the
  // manager's node seeds the quorum gauges and claims the quorum-disk lease for
  // the incumbent side, so a later even split breaks toward it.
  for (NodeId node : cluster_.AllNodes()) {
    membership_->SetVotes(node, kNodeVotes);
  }
  if (config_.infra_node_votes > 0) {
    // Core-weighted layout: the stateful service core outvotes the worker pool.
    membership_->SetVotes(manager_node_, config_.infra_node_votes);
    for (NodeId node : fe_nodes_) membership_->SetVotes(node, config_.infra_node_votes);
    for (NodeId node : cache_nodes_) membership_->SetVotes(node, config_.infra_node_votes);
    membership_->SetVotes(profile_db_node_, config_.infra_node_votes);
    if (topology_.with_origin) {
      membership_->SetVotes(origin_node_, config_.infra_node_votes);
    }
  }
  membership_->BindMetrics(cluster_.metrics());
  fence_agent_->BindMetrics(cluster_.metrics());
  membership_->Regroup(manager_node_, sim_.now(), /*renew=*/true);
  // The bootstrap view above is the cluster forming, not a fault: it stays in
  // the transition log but not on the fault timeline. Every later view change,
  // including the first view of a new vantage (a manager relaunched elsewhere),
  // is a fault annotation.
  membership_->set_event_sink(
      [this](SimTime at, const std::string& what) { event_log_.RecordFault({at, what}); });

  // --- Flight recorder: sample every metric + per-node CPU on a fixed cadence. ---
  recorder_ = std::make_unique<TimeSeriesRecorder>(cluster_.metrics(), kTimeseriesInterval);
  for (NodeId node : cluster_.AllNodes()) {
    AddNodeProbes(node);
  }
  recorder_timer_ = std::make_unique<PeriodicTimer>(
      &sim_, kTimeseriesInterval, [this] { recorder_->SampleAt(sim_.now()); });
  recorder_timer_->Start();

  // --- Spawn the infrastructure processes. ---
  manager_pid_ = cluster_.Spawn(
      manager_node_, std::make_unique<ManagerProcess>(config_, this, ++next_manager_epoch_,
                                                      membership_.get()));
  // Cache nodes surface their rebalance windows in the flight recorder.
  topology_.cache.event_log = &event_log_;
  for (int i = 0; i < topology_.cache_nodes; ++i) {
    cache_pids_.push_back(cluster_.Spawn(
        cache_nodes_[static_cast<size_t>(i)],
        std::make_unique<CacheNodeProcess>(config_, topology_.cache)));
  }
  RelaunchProfileDb();
  monitor_pid_ = cluster_.Spawn(manager_node_, std::make_unique<MonitorProcess>(this));
  // The origin must exist before any front end so FEs are constructed with a valid
  // gateway endpoint.
  if (topology_.with_origin && origin_factory_) {
    auto origin = origin_factory_();
    Process* raw = origin.get();
    origin_pid_ = cluster_.Spawn(origin_node_, std::move(origin));
    if (origin_pid_ != kInvalidProcess) {
      origin_endpoint_ = raw->endpoint();
    }
  }
  for (int i = 0; i < topology_.front_ends; ++i) {
    fe_pids_.push_back(kInvalidProcess);
    RelaunchFrontEnd(i);
  }
}

ProcessId SnsSystem::StartWorker(const std::string& type) {
  // Mirror the manager's placement: any worker-allowed node with spare slots.
  for (NodeId node : worker_pool_) {
    if (cluster_.NodeUp(node) && cluster_.ProcessCountOnNode(node) == 0) {
      return LaunchWorker(type, node);
    }
  }
  for (NodeId node : worker_pool_) {
    if (cluster_.NodeUp(node)) {
      return LaunchWorker(type, node);
    }
  }
  return kInvalidProcess;
}

int SnsSystem::AddFrontEnd() {
  NodeConfig fe;
  fe.workers_allowed = false;
  fe.link = topology_.fe_link;
  fe_nodes_.push_back(cluster_.AddNode(fe));
  membership_->SetVotes(fe_nodes_.back(), config_.infra_node_votes > 0
                                              ? config_.infra_node_votes
                                              : kNodeVotes);
  AddNodeProbes(fe_nodes_.back());
  fe_pids_.push_back(kInvalidProcess);
  int fe_index = static_cast<int>(fe_pids_.size()) - 1;
  RelaunchFrontEnd(fe_index);
  return fe_index;
}

ProcessId SnsSystem::LaunchWorker(const std::string& type, NodeId node) {
  TaccWorkerPtr worker = registry_.Create(type);
  if (worker == nullptr) {
    SNS_LOG(kError, "system") << "no factory registered for worker type " << type;
    return kInvalidProcess;
  }
  return cluster_.Spawn(node, std::make_unique<WorkerProcess>(std::move(worker)));
}

ProcessId SnsSystem::RelaunchManager(NodeId requester) {
  Process* incumbent =
      manager_pid_ != kInvalidProcess ? cluster_.Find(manager_pid_) : nullptr;
  if (incumbent != nullptr && RequesterCanReach(requester, incumbent->node())) {
    return manager_pid_;  // Alive and visible to the requester: idempotent no-op.
  }
  // Either no manager exists, or the incumbent is stranded on the far side of a SAN
  // partition from the requester. Failover must not be blocked by the unreachable
  // incumbent — but only a quorate side may promote: a minority-side watchdog is
  // refused, so at most one side of any partition ever runs an acting manager.
  if (!RequesterQuorate(requester, "relaunch-manager")) {
    return kInvalidProcess;
  }
  NodeId node = PickUpNodePreferring(manager_node_, requester);
  if (node == kInvalidNode) {
    SNS_LOG(kError, "system") << "no node available to restart the manager";
    return kInvalidProcess;
  }
  if (incumbent != nullptr) {
    SNS_LOG(kWarning, "system")
        << "manager on node " << incumbent->node() << " unreachable from node " << requester
        << "; launching epoch " << next_manager_epoch_ + 1 << " on node " << node;
    // STONITH: kill the alive-but-unreachable incumbent through the fence
    // device's out-of-band channel before the successor exists, so the two
    // incarnations never coexist (epoch fencing then becomes a backstop, not
    // the primary mechanism).
    fence_agent_->Fence(manager_pid_,
                        StrFormat("stale manager epoch %llu, promoting epoch %llu",
                                  static_cast<unsigned long long>(next_manager_epoch_),
                                  static_cast<unsigned long long>(next_manager_epoch_ + 1)));
  }
  manager_pid_ = cluster_.Spawn(
      node, std::make_unique<ManagerProcess>(config_, this, ++next_manager_epoch_,
                                             membership_.get()));
  // Restoring the control plane restores the configured roster: a freshly started
  // manager has empty soft state, so front ends (or the profile DB) that died in
  // the same window would otherwise never come back — the launcher owns the
  // deployment configuration, the manager only its observations.
  for (int i = 0; i < static_cast<int>(fe_pids_.size()); ++i) {
    RelaunchFrontEnd(i, requester);
  }
  RelaunchProfileDb(requester);
  return manager_pid_;
}

ProcessId SnsSystem::RelaunchFrontEnd(int fe_index, NodeId requester) {
  if (fe_index < 0 || fe_index >= static_cast<int>(fe_pids_.size())) {
    return kInvalidProcess;
  }
  auto idx = static_cast<size_t>(fe_index);
  Process* incumbent =
      fe_pids_[idx] != kInvalidProcess ? cluster_.Find(fe_pids_[idx]) : nullptr;
  if (incumbent != nullptr && RequesterCanReach(requester, incumbent->node())) {
    return fe_pids_[idx];
  }
  if (!RequesterQuorate(requester, "relaunch-front-end")) {
    return kInvalidProcess;
  }
  NodeId node = PickUpNodePreferring(fe_nodes_[idx], requester);
  if (node == kInvalidNode || !logic_factory_) {
    return kInvalidProcess;
  }
  FrontEndOptions options;
  options.fe_index = fe_index;
  options.origin = origin_endpoint_;
  options.seed = topology_.seed ^ (0xFEULL << 32) ^ static_cast<uint64_t>(fe_index);
  fe_pids_[idx] = cluster_.Spawn(
      node, std::make_unique<FrontEndProcess>(config_, options, logic_factory_(fe_index), this));
  return fe_pids_[idx];
}

ProcessId SnsSystem::RelaunchProfileDb(NodeId requester) {
  Process* incumbent =
      profile_db_pid_ != kInvalidProcess ? cluster_.Find(profile_db_pid_) : nullptr;
  if (incumbent != nullptr && RequesterCanReach(requester, incumbent->node())) {
    return profile_db_pid_;  // Alive and visible to the requester: idempotent no-op.
  }
  if (!RequesterQuorate(requester, "relaunch-profile-db")) {
    return kInvalidProcess;
  }
  NodeId node = PickUpNodePreferring(profile_db_node_, requester);
  if (node == kInvalidNode) {
    return kInvalidProcess;
  }
  if (incumbent != nullptr) {
    // Fence the stranded incumbent before its successor recovers the WAL, so a
    // stale primary can never commit (and falsely acknowledge) a write after
    // the failover. The store reservation is the belt to this suspender.
    fence_agent_->Fence(profile_db_pid_,
                        StrFormat("stale profile db generation %llu, promoting %llu",
                                  static_cast<unsigned long long>(next_profile_db_generation_),
                                  static_cast<unsigned long long>(next_profile_db_generation_ + 1)));
  }
  // The new primary recovers from the shared WAL ("disk") in OnStart and claims
  // the store reservation with its (strictly higher) generation.
  ProfileDbConfig db_config = topology_.profile_db;
  db_config.generation = ++next_profile_db_generation_;
  db_config.membership = membership_.get();
  db_config.reservation = &profile_reservation_;
  profile_db_pid_ = cluster_.Spawn(
      node, std::make_unique<ProfileDbProcess>(db_config, &profile_store_));
  return profile_db_pid_;
}

int SnsSystem::HotUpgradeWorkers(const std::string& type, SimDuration pause) {
  std::vector<WorkerProcess*> workers = live_workers(type);
  int scheduled = 0;
  SimDuration delay = 0;
  for (WorkerProcess* worker : workers) {
    ProcessId victim = worker->pid();
    NodeId node = worker->node();
    sim_.Schedule(delay, [this, victim, node, type] {
      // Graceful stop (drains nothing further; queued work is lost soft state that
      // the front ends' retries regenerate), then the "upgraded" instance starts on
      // the same node.
      if (cluster_.Find(victim) != nullptr) {
        cluster_.Stop(victim);
        LaunchWorker(type, node);
      }
    });
    delay += pause;
    ++scheduled;
  }
  return scheduled;
}

NodeId SnsSystem::PickUpNodePreferring(NodeId preferred, NodeId requester) const {
  if (preferred != kInvalidNode && cluster_.NodeUp(preferred) &&
      RequesterCanReach(requester, preferred)) {
    return preferred;
  }
  for (NodeId node : cluster_.UpNodes(/*include_overflow=*/true)) {
    if (RequesterCanReach(requester, node)) {
      return node;
    }
  }
  return kInvalidNode;
}

bool SnsSystem::RequesterCanReach(NodeId requester, NodeId target) const {
  if (requester == kInvalidNode) {
    return true;  // No vantage point (bootstrap, tests): existence suffices.
  }
  return san_.NodeUp(target) && san_.Reachable(requester, target);
}

bool SnsSystem::RequesterQuorate(NodeId requester, const char* action) {
  if (requester == kInvalidNode) {
    return true;
  }
  MembershipView view = membership_->Regroup(requester, sim_.now());
  if (!view.quorate) {
    SNS_LOG(kWarning, "system")
        << action << " from node " << requester << " refused: minority partition ("
        << view.votes_held << "/" << view.votes_total << " votes)";
    return false;
  }
  return true;
}

ManagerProcess* SnsSystem::manager() const {
  return static_cast<ManagerProcess*>(cluster_.Find(manager_pid_));
}

FrontEndProcess* SnsSystem::front_end(int fe_index) const {
  if (fe_index < 0 || fe_index >= static_cast<int>(fe_pids_.size())) {
    return nullptr;
  }
  return static_cast<FrontEndProcess*>(cluster_.Find(fe_pids_[static_cast<size_t>(fe_index)]));
}

std::vector<FrontEndProcess*> SnsSystem::front_ends() const {
  std::vector<FrontEndProcess*> out;
  for (size_t i = 0; i < fe_pids_.size(); ++i) {
    auto* fe = front_end(static_cast<int>(i));
    if (fe != nullptr) {
      out.push_back(fe);
    }
  }
  return out;
}

void SnsSystem::LiveFrontEndEndpoints(std::vector<Endpoint>* out) const {
  out->clear();
  for (size_t i = 0; i < fe_pids_.size(); ++i) {
    if (const FrontEndProcess* fe = front_end(static_cast<int>(i))) {
      out->push_back(fe->endpoint());
    }
  }
}

std::vector<ArtifactSection> SnsSystem::ArtifactSections() {
  MonitorProcess* monitor_process = monitor();
  // No monitor before Start, or once the manager's node (which hosts it) has
  // crashed: nothing relaunches it. Fall back to the bare registry so the
  // artifact still carries the metrics.
  return {{"snapshot", monitor_process != nullptr ? monitor_process->ExportJson()
                                                  : metrics()->RenderJson()},
          {"timeseries", recorder_ != nullptr ? recorder_->ToJson() : "{}"},
          {"critical_path", CriticalPathSummary::FromCollector(*tracer()).ToJson()},
          {"availability", availability_.ToJson(&event_log_)},
          {"profile", Profiler::Get().ToJson()},
          {"traces", tracer()->ToJson()}};
}

MonitorProcess* SnsSystem::monitor() const {
  return static_cast<MonitorProcess*>(cluster_.Find(monitor_pid_));
}

std::vector<WorkerProcess*> SnsSystem::live_workers() const {
  std::vector<WorkerProcess*> out;
  for (NodeId node : cluster_.AllNodes()) {
    for (ProcessId pid : cluster_.ProcessesOnNode(node)) {
      auto* worker = dynamic_cast<WorkerProcess*>(cluster_.Find(pid));
      if (worker != nullptr) {
        out.push_back(worker);
      }
    }
  }
  return out;
}

std::vector<WorkerProcess*> SnsSystem::live_workers(const std::string& type) const {
  std::vector<WorkerProcess*> out;
  for (WorkerProcess* worker : live_workers()) {
    if (worker->worker_type() == type) {
      out.push_back(worker);
    }
  }
  return out;
}

std::vector<CacheNodeProcess*> SnsSystem::cache_node_processes() const {
  std::vector<CacheNodeProcess*> out;
  for (ProcessId pid : cache_pids_) {
    Process* p = cluster_.Find(pid);
    if (p != nullptr) {
      out.push_back(static_cast<CacheNodeProcess*>(p));
    }
  }
  return out;
}

ProfileDbProcess* SnsSystem::profile_db() const {
  return static_cast<ProfileDbProcess*>(cluster_.Find(profile_db_pid_));
}

Process* SnsSystem::origin_process() const { return cluster_.Find(origin_pid_); }

}  // namespace sns

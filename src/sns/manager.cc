#include "src/sns/manager.h"

#include <algorithm>
#include <set>

#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

ManagerProcess::ManagerProcess(const SnsConfig& config, ComponentLauncher* launcher,
                               uint64_t epoch, MembershipService* membership)
    : Process("manager"),
      config_(config),
      launcher_(launcher),
      epoch_(epoch),
      membership_(membership),
      workers_(kWorkerTtl),
      front_ends_(kFrontEndTtl),
      cache_nodes_(kWorkerTtl) {}

void ManagerProcess::OnStart() {
  beacons_sent_ = metrics()->GetCounter("manager.beacons_sent");
  reports_received_ = metrics()->GetCounter("manager.reports_received");
  spawns_initiated_ = metrics()->GetCounter("manager.spawns_initiated");
  reaps_initiated_ = metrics()->GetCounter("manager.reaps_initiated");
  fe_restarts_ = metrics()->GetCounter("manager.fe_restarts");
  profile_db_failovers_ = metrics()->GetCounter("manager.profile_db_failovers");
  demotions_ = metrics()->GetCounter("manager.demotions");
  quorum_losses_ = metrics()->GetCounter("manager.quorum_losses");
  known_workers_ = metrics()->GetGauge("manager.known_workers");
  epoch_gauge_ = metrics()->GetGauge("manager.epoch");
  epoch_gauge_->Set(static_cast<double>(epoch_));
  // Subscribing to its own beacon group is how a manager discovers a rival
  // incarnation after a partition heals (its own beacons don't loop back).
  JoinGroup(kGroupManagerBeacon);
  beacon_timer_ = std::make_unique<PeriodicTimer>(sim(), kManagerBeaconPeriod,
                                                  [this] { Beacon(); });
  // First beacon goes out almost immediately so a restarted manager re-announces
  // itself fast (workers re-register on hearing it, §3.1.3).
  beacon_timer_->StartWithDelay(Milliseconds(10));
  SNS_LOG(kInfo, "manager") << "manager epoch " << epoch_ << " started at "
                            << endpoint().ToString();
}

void ManagerProcess::OnStop() {
  beacon_timer_.reset();
  LeaveGroup(kGroupManagerBeacon);
}

void ManagerProcess::OnMessage(const Message& msg) {
  if (demoted_) {
    return;  // Fenced out; the self-crash is already scheduled.
  }
  switch (msg.type) {
    case kMsgRegisterComponent:
      HandleRegister(static_cast<const LoadReportPayload&>(*msg.payload));
      break;
    case kMsgLoadReport:
      HandleLoadReport(static_cast<const LoadReportPayload&>(*msg.payload));
      break;
    case kMsgManagerBeacon:
      HandleRivalBeacon(static_cast<const ManagerBeaconPayload&>(*msg.payload));
      break;
    case kMsgSpawnRequest: {
      // A spawn request originates from a request that found no worker; keep it in
      // that request's trace so spin-up latency is visible end to end.
      SimTime start = sim()->now();
      TraceContext span = ChildSpan(msg.trace);
      bool spawned = HandleSpawnRequest(static_cast<const SpawnRequestPayload&>(*msg.payload));
      RecordSpan(span, "manager.spawn_request", start, spawned ? "spawned" : "ignored");
      break;
    }
    default:
      break;
  }
}

bool ManagerProcess::FenceAgainst(uint64_t observed_epoch, const char* evidence) {
  if (observed_epoch <= epoch_) {
    return false;
  }
  demoted_ = true;
  demotions_->Increment();
  SNS_LOG(kWarning, "manager") << "epoch " << epoch_ << " observed epoch " << observed_epoch
                               << " via " << evidence << "; demoting (self-crash)";
  beacon_timer_.reset();  // Go silent immediately; no farewell beacon.
  CrashSelf();
  return true;
}

void ManagerProcess::HandleRivalBeacon(const ManagerBeaconPayload& beacon) {
  if (beacon.manager == endpoint()) {
    return;  // Our own beacon (defensive; multicast excludes the sender).
  }
  FenceAgainst(beacon.epoch, "rival beacon");
}

void ManagerProcess::HandleRegister(const LoadReportPayload& p) {
  if (FenceAgainst(p.manager_epoch, "registration")) {
    return;  // The component already follows a newer incarnation.
  }
  SimTime now = sim()->now();
  if (p.kind == ComponentKind::kWorker) {
    UpsertWorker(p.component, p.worker_type, p.interchangeable, now);
    SNS_LOG(kDebug, "manager") << "registered worker " << p.worker_type << " at "
                               << p.component.ToString();
  } else {
    RefreshComponent(p, now);
  }
}

void ManagerProcess::RefreshComponent(const LoadReportPayload& p, SimTime now) {
  switch (p.kind) {
    case ComponentKind::kCacheNode:
      cache_nodes_.Refresh(p.component, true, now);
      break;
    case ComponentKind::kFrontEnd:
      front_ends_.Refresh(p.component, FrontEndState{p.fe_index}, now);
      break;
    case ComponentKind::kProfileDb:
      // Keep only the newest incarnation: a fenced-off stale DB re-registering
      // after a heal must not displace the successor from the beacon.
      if (p.component_generation >= profile_db_generation_) {
        profile_db_generation_ = p.component_generation;
        profile_db_ = p.component;
        profile_db_last_seen_ = now;
      }
      break;
    default:
      break;
  }
}

ManagerProcess::WorkerState* ManagerProcess::UpsertWorker(const Endpoint& ep,
                                                          const std::string& worker_type,
                                                          bool interchangeable, SimTime now) {
  WorkerState state(kLoadEwmaAlpha);
  state.worker_type = worker_type;
  state.interchangeable = interchangeable;
  workers_.Refresh(ep, std::move(state), now);
  // Whether explicit or implicit, a registration from this node means the in-flight
  // spawn (if any) landed.
  pending_placements_.erase(ep.node);
  return workers_.GetMutable(ep, now);
}

void ManagerProcess::HandleLoadReport(const LoadReportPayload& p) {
  SNS_PROFILE_ZONE_STRIDE("manager.beacon_fanin", 2);
  if (FenceAgainst(p.manager_epoch, "load report")) {
    return;
  }
  reports_received_->Increment();
  // Aggregating an announcement costs CPU; at §4.6's 1800 announcements/s this is
  // what bounds the manager's ultimate capacity.
  RunOnCpu(kManagerCpuPerReport, [] {});
  SimTime now = sim()->now();
  if (p.kind != ComponentKind::kWorker) {
    RefreshComponent(p, now);
    return;
  }
  if (p.queue_length < 0) {
    // A stub observed this worker dead (broken connection); drop it now rather
    // than waiting for TTL expiry. The death is a capacity deficit at the
    // demand that sized the pool, so restart a replacement immediately (peer
    // fault tolerance, §3.1.3) instead of waiting out the load path's full
    // cooldown. Several workers dying at once can land inside the 1 s respawn
    // guard; retry each blocked replacement once after the guard expires.
    RemoveWorker(p.component);
    if (!TrySpawn(p.worker_type, /*bypass_cooldown=*/true)) {
      std::string type = p.worker_type;
      After(Milliseconds(1100), [this, type] {
        TrySpawn(type, /*bypass_cooldown=*/true);
      });
    }
    return;
  }
  WorkerState* state = workers_.GetMutable(p.component, now);
  if (state == nullptr) {
    // Unknown sender: treat the report as an implicit (re-)registration — this
    // is how workers rejoin a restarted manager without explicit recovery code.
    state = UpsertWorker(p.component, p.worker_type, p.interchangeable, now);
  } else {
    workers_.Touch(p.component, now);
  }
  state->smoothed_queue.Add(p.queue_length);
  state->last_reported_queue = p.queue_length;
}

bool ManagerProcess::HandleSpawnRequest(const SpawnRequestPayload& p) {
  if (KnownWorkerCount(p.worker_type) == 0) {
    return TrySpawn(p.worker_type, /*bypass_cooldown=*/true);
  }
  return false;
}

void ManagerProcess::Beacon() {
  if (demoted_) {
    return;
  }
  SimTime now = sim()->now();
  // Regroup round (MSCS-style): leadership is asserted only with a quorum of
  // live votes. A minority-side manager degrades to read-only — no soft-state
  // expiry, no policy actions, no relaunches — but keeps beaconing with
  // quorate=false so its side's front ends fail writes fast and don't stampede
  // watchdog restarts against a manager that is in fact alive.
  bool quorate = true;
  int32_t votes_held = 0;
  int32_t votes_total = 0;
  if (membership_ != nullptr) {
    MembershipView view = membership_->Regroup(node(), now, /*renew=*/true);
    quorate = view.quorate;
    votes_held = view.votes_held;
    votes_total = view.votes_total;
    if (!quorate && !read_only_degraded_) {
      read_only_degraded_ = true;
      quorum_losses_->Increment();
      SNS_LOG(kWarning, "manager")
          << "epoch " << epoch_ << " lost quorum (" << votes_held << "/" << votes_total
          << " votes); degrading to read-only";
      membership_->NoteTransition(
          now, StrFormat("t=%s manager epoch=%llu degraded (votes %d/%d)",
                         FormatTime(now).c_str(),
                         static_cast<unsigned long long>(epoch_), votes_held,
                         votes_total));
    } else if (quorate && read_only_degraded_) {
      read_only_degraded_ = false;
      SNS_LOG(kInfo, "manager") << "epoch " << epoch_ << " regained quorum; resuming";
      membership_->NoteTransition(
          now, StrFormat("t=%s manager epoch=%llu resumed (votes %d/%d)",
                         FormatTime(now).c_str(),
                         static_cast<unsigned long long>(epoch_), votes_held,
                         votes_total));
    }
  }
  if (!read_only_degraded_) {
    ExpireSoftState();
    RunPolicy();
  }

  auto payload = std::make_shared<ManagerBeaconPayload>();
  payload->manager = endpoint();
  payload->epoch = epoch_;
  payload->beacon_seq = ++beacon_seq_;
  payload->quorate = quorate;
  payload->votes_held = votes_held;
  payload->votes_total = votes_total;
  workers_.ForEach(now, [&](const Endpoint& ep, const WorkerState& state) {
    WorkerHint hint;
    hint.endpoint = ep;
    hint.worker_type = state.worker_type;
    hint.smoothed_queue = state.smoothed_queue.value();
    hint.interchangeable = state.interchangeable;
    payload->workers.push_back(std::move(hint));
  });
  cache_nodes_.ForEach(now, [&](const Endpoint& ep, const bool&) {
    payload->cache_nodes.push_back(ep);
  });
  payload->profile_db = profile_db_;
  payload->profile_db_generation = profile_db_generation_;

  Message msg;
  msg.type = kMsgManagerBeacon;
  msg.size_bytes = WireSizeOf(*payload);
  msg.payload = payload;
  SendMulticast(kGroupManagerBeacon, std::move(msg));
  beacons_sent_->Increment();
  known_workers_->Set(static_cast<double>(payload->workers.size()));
}

void ManagerProcess::ExpireSoftState() {
  SimTime now = sim()->now();
  workers_.Expire(now, [this](const Endpoint& ep, const WorkerState& state) {
    SNS_LOG(kInfo, "manager") << "worker " << state.worker_type << " at " << ep.ToString()
                              << " lease expired (presumed dead)";
  });
  front_ends_.Expire(now, [this](const Endpoint& ep, const FrontEndState& state) {
    SNS_LOG(kWarning, "manager") << "front end " << state.fe_index << " at " << ep.ToString()
                                 << " silent; restarting (process peer)";
    // Pass our own vantage point: a replacement the manager cannot reach would
    // never re-register and would be "restarted" again every TTL. A relaunch
    // that finds the incumbent alive and reachable spawns nothing.
    int64_t spawns = cluster()->total_spawns();
    launcher_->RelaunchFrontEnd(state.fe_index, node());
    if (cluster()->total_spawns() > spawns) {
      fe_restarts_->Increment();
    }
  });
  cache_nodes_.Expire(now, nullptr);
  // ACID-component failover: the profile DB's heartbeats stopped — start a fresh
  // primary that recovers from the shared WAL (HotBot's Informix primary/backup
  // role, Table 1 / §3.2).
  if (profile_db_.valid() && profile_db_last_seen_ >= 0 &&
      now - profile_db_last_seen_ > kFrontEndTtl) {
    SNS_LOG(kWarning, "manager") << "profile DB silent; failing over";
    profile_db_failovers_->Increment();
    profile_db_last_seen_ = now;  // One failover per TTL window.
    launcher_->RelaunchProfileDb(node());
  }
}

void ManagerProcess::RunPolicy() {
  SNS_PROFILE_ZONE("manager.policy_scan");
  SimTime now = sim()->now();
  // Aggregate live workers by type.
  struct TypeLoad {
    double total_queue = 0;
    int count = 0;
    std::vector<Endpoint> endpoints;
  };
  std::map<std::string, TypeLoad> types;
  workers_.ForEach(now, [&](const Endpoint& ep, const WorkerState& state) {
    TypeLoad& load = types[state.worker_type];
    load.total_queue += state.smoothed_queue.value();
    ++load.count;
    load.endpoints.push_back(ep);
  });

  for (auto& [type, load] : types) {
    double avg = load.count > 0 ? load.total_queue / load.count : 0.0;
    // --- Spawn: average queue crossed threshold H (paper §4.5). ---
    if (avg > config_.spawn_threshold_h) {
      low_load_since_.erase(type);
      TrySpawn(type, /*bypass_cooldown=*/false);
      continue;
    }
    // --- Reap: sustained low load and more than the minimum population. ---
    if (avg < config_.reap_threshold && load.count > kMinWorkersPerType) {
      auto it = low_load_since_.find(type);
      if (it == low_load_since_.end()) {
        low_load_since_[type] = now;
      } else if (now - it->second >= kReapIdleTime) {
        // Reap one overflow-node worker; dedicated workers stay (the overflow pool
        // is released as bursts subside, §2.2.3).
        for (const Endpoint& ep : load.endpoints) {
          if (cluster()->IsOverflowNode(ep.node)) {
            Process* victim = cluster()->FindByEndpoint(ep);
            if (victim != nullptr) {
              SNS_LOG(kInfo, "manager") << "reaping overflow worker " << type << " at "
                                        << ep.ToString();
              reaps_initiated_->Increment();
              RemoveWorker(ep);
              cluster()->Stop(victim->pid());
              it->second = now;  // One reap per idle interval.
              break;
            }
          }
        }
      }
    } else {
      low_load_since_.erase(type);
    }
  }
}

bool ManagerProcess::TrySpawn(const std::string& type, bool bypass_cooldown) {
  SimTime now = sim()->now();
  auto it = last_spawn_.find(type);
  SimDuration guard = bypass_cooldown ? Seconds(1) : kSpawnCooldown;
  if (it != last_spawn_.end() && now - it->second < guard) {
    return false;
  }
  NodeId node = PickNodeForWorker(type);
  if (node == kInvalidNode) {
    SNS_LOG(kWarning, "manager") << "no node available to spawn " << type;
    return false;
  }
  last_spawn_[type] = now;
  pending_placements_[node] = now + kWorkerTtl;
  spawns_initiated_->Increment();
  SNS_LOG(kInfo, "manager") << "spawning " << type << " on node " << node
                            << (cluster()->IsOverflowNode(node) ? " (overflow)" : "");
  launcher_->LaunchWorker(type, node);
  return true;
}

NodeId ManagerProcess::PickNodeForWorker(const std::string& type) {
  (void)type;
  SimTime now = sim()->now();
  // Nodes hosting infrastructure components are not eligible for workers (FEs and
  // caches are bound to their nodes, Table 1).
  std::set<NodeId> reserved;
  reserved.insert(node());  // The manager's own node.
  front_ends_.ForEach(now, [&](const Endpoint& ep, const FrontEndState&) {
    reserved.insert(ep.node);
  });
  cache_nodes_.ForEach(now, [&](const Endpoint& ep, const bool&) { reserved.insert(ep.node); });
  if (profile_db_.valid()) {
    reserved.insert(profile_db_.node);
  }
  std::map<NodeId, int> worker_count;
  workers_.ForEach(now, [&](const Endpoint& ep, const WorkerState&) { ++worker_count[ep.node]; });
  // Spawns still in flight count against their target node.
  for (auto it = pending_placements_.begin(); it != pending_placements_.end();) {
    if (it->second <= now) {
      it = pending_placements_.erase(it);
    } else {
      ++worker_count[it->first];
      ++it;
    }
  }

  auto pick_from = [&](const std::vector<NodeId>& nodes, bool overflow) -> NodeId {
    NodeId best = kInvalidNode;
    int best_count = config_.max_workers_per_node;
    for (NodeId candidate : nodes) {
      if (cluster()->IsOverflowNode(candidate) != overflow || reserved.count(candidate) > 0 ||
          !cluster()->WorkersAllowed(candidate) ||
          !cluster()->san()->Reachable(node(), candidate)) {
        // A node on the far side of a partition would host a worker this manager
        // could never hear from; spawn only where the registration can return.
        continue;
      }
      int count = 0;
      auto it = worker_count.find(candidate);
      if (it != worker_count.end()) {
        count = it->second;
      }
      if (count < best_count) {
        best_count = count;
        best = candidate;
      }
    }
    return best;
  };

  std::vector<NodeId> all = cluster()->UpNodes(/*include_overflow=*/true);
  NodeId dedicated = pick_from(all, /*overflow=*/false);
  if (dedicated != kInvalidNode) {
    return dedicated;
  }
  // Dedicated pool exhausted: recruit the overflow pool (§2.2.3).
  return pick_from(all, /*overflow=*/true);
}

void ManagerProcess::RemoveWorker(const Endpoint& ep) { workers_.Erase(ep); }

size_t ManagerProcess::KnownWorkerCount() const { return workers_.LiveCount(sim()->now()); }

size_t ManagerProcess::KnownFrontEndCount() const { return front_ends_.LiveCount(sim()->now()); }

size_t ManagerProcess::KnownWorkerCount(const std::string& type) const {
  size_t count = 0;
  workers_.ForEach(sim()->now(), [&](const Endpoint&, const WorkerState& state) {
    if (state.worker_type == type) {
      ++count;
    }
  });
  return count;
}

double ManagerProcess::SmoothedQueue(const std::string& type) const {
  double total = 0;
  int count = 0;
  workers_.ForEach(sim()->now(), [&](const Endpoint&, const WorkerState& state) {
    if (state.worker_type == type) {
      total += state.smoothed_queue.value();
      ++count;
    }
  });
  return count > 0 ? total / count : 0.0;
}

}  // namespace sns

#include "src/sns/manager_stub.h"

#include <algorithm>

#include "src/obs/profiler.h"

namespace sns {

ManagerLink::Sighting ManagerStub::OnBeacon(const ManagerBeaconPayload& beacon, SimTime now) {
  ManagerLink::Sighting sighting = link_.Follow(beacon);
  if (sighting == ManagerLink::Sighting::kStale) {
    ++fenced_beacons_;
    return sighting;
  }
  if (sighting == ManagerLink::Sighting::kNew) {
    // New manager incarnation: its hints are authoritative; drop any view carried
    // over from the previous incarnation rather than letting it age through the
    // grace window.
    workers_.clear();
  }
  last_beacon_ = now;
  ++beacons_seen_;

  // Rebuild the worker view from the hints, preserving estimator state and
  // in-flight counts for workers that persist across beacons.
  std::unordered_map<Endpoint, WorkerView, EndpointHash> next;
  for (const WorkerHint& hint : beacon.workers) {
    WorkerView view;
    auto it = workers_.find(hint.endpoint);
    if (it != workers_.end()) {
      view = std::move(it->second);
      workers_.erase(it);
    }
    view.type = hint.worker_type;
    view.hint_queue = hint.smoothed_queue;
    view.estimator.Observe(hint.smoothed_queue, ToSeconds(now));
    view.last_seen = now;
    next[hint.endpoint] = std::move(view);
  }
  // Workers absent from this beacon keep their view (estimator, in-flight count)
  // through a short grace window: beacons ride best-effort multicast, and one
  // dropped datagram must not zero a worker's load accounting and skew the
  // lottery. Sustained absence evicts.
  for (auto& [ep, view] : workers_) {
    if (now - view.last_seen <= kBeaconAbsenceGrace) {
      next[ep] = std::move(view);
    }
  }
  workers_ = std::move(next);

  cache_membership_changes_ += SyncCacheRing(beacon.cache_nodes, &cache_nodes_, &cache_ring_);
  profile_db_ = beacon.profile_db;
  profile_db_generation_ = beacon.profile_db_generation;
  quorate_ = beacon.quorate;
  votes_held_ = beacon.votes_held;
  votes_total_ = beacon.votes_total;
  return sighting;
}

std::optional<Endpoint> ManagerStub::CacheNodeForKey(const std::string& key) const {
  auto member = cache_ring_.Lookup(key);
  if (!member.has_value()) {
    return std::nullopt;
  }
  return CacheRingMemberEndpoint(*member);
}

ManagerStub::CacheChain ManagerStub::CacheChainForKey(const std::string& key) const {
  SNS_PROFILE_ZONE_STRIDE("cache.ring_lookup", 3);
  CacheChain chain;
  for (int64_t m : cache_ring_.LookupN(key, CacheReplicaCount(config_))) {
    chain.push_back(CacheRingMemberEndpoint(m));
  }
  return chain;
}

double ManagerStub::PredictedQueue(const Endpoint& worker, SimTime now) const {
  auto it = workers_.find(worker);
  if (it == workers_.end()) {
    return 0.0;
  }
  const WorkerView& view = it->second;
  double queue = config_.use_delta_estimation ? view.estimator.Predict(ToSeconds(now))
                                              : view.hint_queue;
  if (config_.track_inflight_tasks) {
    queue += view.inflight;
  }
  return std::max(queue, 0.0);
}

std::optional<Endpoint> ManagerStub::PickWorker(const std::string& type, SimTime now,
                                                const Endpoint* exclude) {
  std::vector<Endpoint> candidates;
  std::vector<double> weights;
  bool excluded_any = false;
  for (const auto& [ep, view] : workers_) {
    if (view.type != type) {
      continue;
    }
    if (exclude != nullptr && ep == *exclude) {
      excluded_any = true;
      continue;
    }
    candidates.push_back(ep);
    double queue = PredictedQueue(ep, now);
    // Lottery tickets inversely proportional to predicted queue depth.
    weights.push_back(1.0 / (1.0 + queue));
  }
  if (candidates.empty()) {
    // Only the excluded worker exists: better it than nothing (it may merely be
    // slow), so fall back rather than failing the task outright.
    if (excluded_any) {
      candidates.push_back(*exclude);
      weights.push_back(1.0);
    } else {
      return std::nullopt;
    }
  }
  switch (config_.balance_policy) {
    case BalancePolicy::kLottery:
      return candidates[rng_->WeightedIndex(weights)];
    case BalancePolicy::kRandom:
      return candidates[static_cast<size_t>(
          rng_->UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    case BalancePolicy::kRoundRobin:
      return candidates[round_robin_++ % candidates.size()];
  }
  return candidates[0];
}

void ManagerStub::NoteTaskSent(const Endpoint& worker) {
  auto it = workers_.find(worker);
  if (it != workers_.end()) {
    ++it->second.inflight;
  }
}

void ManagerStub::NoteTaskDone(const Endpoint& worker) {
  auto it = workers_.find(worker);
  if (it != workers_.end() && it->second.inflight > 0) {
    --it->second.inflight;
  }
}

bool ManagerStub::NoteWorkerDead(const Endpoint& worker) {
  return workers_.erase(worker) > 0;
}

SimDuration ManagerStub::BeaconSilence(SimTime now) const {
  if (last_beacon_ < 0) {
    return kTimeNever;
  }
  return now - last_beacon_;
}

bool ManagerStub::ManagerSuspectedDead(SimTime now) const {
  SimDuration silence = BeaconSilence(now);
  return silence != kTimeNever && silence > kManagerSilenceRestart;
}

size_t ManagerStub::KnownWorkerCount(const std::string& type) const {
  size_t count = 0;
  for (const auto& [ep, view] : workers_) {
    if (view.type == type) {
      ++count;
    }
  }
  return count;
}

std::vector<Endpoint> ManagerStub::WorkersOfType(const std::string& type) const {
  std::vector<Endpoint> out;
  for (const auto& [ep, view] : workers_) {
    if (view.type == type) {
      out.push_back(ep);
    }
  }
  std::sort(out.begin(), out.end(), [](const Endpoint& a, const Endpoint& b) {
    return a.node != b.node ? a.node < b.node : a.port < b.port;
  });
  return out;
}

}  // namespace sns

// The manager stub, linked into each front end (paper §2.2.5, §3.1.2).
//
// Caches the load-balancing hints piggybacked on manager beacons and picks a worker
// for each task with lottery scheduling [Waldspurger & Weihl, OSDI'94] weighted by
// predicted queue length. Because the hints are slightly stale between beacons
// (BASE!), the stub:
//   - keeps a running estimate of each worker's queue-length delta between
//     successive reports and extrapolates — the fix that eliminated the load
//     oscillations of §4.5;
//   - optimistically counts its own in-flight tasks against a worker's queue;
//   - keeps a worker's view through a short grace window when the worker is merely
//     absent from one beacon (beacons ride best-effort multicast), so a dropped
//     datagram does not zero the worker's in-flight accounting;
//   - uses timeouts and broken-connection signals to recover from choices based on
//     stale data (§3.1.8), reporting observed-dead workers back to the manager.
//
// The stub also owns the "single virtual cache" view (§3.1.5): cache partitions are
// arranged on a consistent-hash ring so that a node join/leave remaps only ~1/N of
// the key space instead of nearly all of it.
//
// The stub also tracks manager liveness: if beacons stop for too long, the front
// end (a process peer) restarts the manager.

#ifndef SRC_SNS_MANAGER_STUB_H_
#define SRC_SNS_MANAGER_STUB_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sns/config.h"
#include "src/sns/manager_link.h"
#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"
#include "src/util/inline_vector.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace sns {

class ManagerStub {
 public:
  ManagerStub(const SnsConfig& config, Rng* rng)
      : config_(config), rng_(rng), cache_ring_(kCacheRingVnodes) {}

  // Feed a received beacon into the cache; returns what ManagerLink::Follow made
  // of it. A kStale beacon came from a fenced manager incarnation and changes
  // nothing; callers must not register or otherwise act on it. On kNew the front
  // end registers with the new manager through link().
  ManagerLink::Sighting OnBeacon(const ManagerBeaconPayload& beacon, SimTime now);

  // Lottery-schedules a worker of `type`; nullopt if none is known alive. When
  // `exclude` is given (the worker a retry just failed on), it is picked only if
  // no alternative of the type exists.
  std::optional<Endpoint> PickWorker(const std::string& type, SimTime now,
                                     const Endpoint* exclude = nullptr);

  // In-flight bookkeeping (kept even when hints are stale).
  void NoteTaskSent(const Endpoint& worker);
  void NoteTaskDone(const Endpoint& worker);

  // A reliable send to `worker` failed fast or timed out: drop it from the local
  // cache immediately. Returns true if it was present.
  bool NoteWorkerDead(const Endpoint& worker);

  bool ManagerKnown() const { return link_.known(); }
  const Endpoint& manager() const { return link_.manager(); }
  // The front end's link to the manager it follows: builds its registration and
  // load reports, stamped with the followed epoch.
  const ManagerLink& link() const { return link_; }
  uint64_t fenced_beacons() const { return fenced_beacons_; }
  // Time since the last beacon; kTimeNever if none ever received.
  SimDuration BeaconSilence(SimTime now) const;
  bool ManagerSuspectedDead(SimTime now) const;

  const std::vector<Endpoint>& cache_nodes() const { return cache_nodes_; }
  const Endpoint& profile_db() const { return profile_db_; }
  uint64_t profile_db_generation() const { return profile_db_generation_; }

  // Quorum state from the last accepted beacon. A front end behind a degraded
  // (minority) manager fails profile writes fast instead of letting them time
  // out against an unreachable DB. Defaults to quorate when no beacon has been
  // seen, so quorum-unaware setups behave exactly as before.
  bool cluster_quorate() const { return quorate_; }
  int32_t votes_held() const { return votes_held_; }
  int32_t votes_total() const { return votes_total_; }

  // Cache partition owning `key` on the consistent-hash ring; nullopt when no
  // cache node is known.
  std::optional<Endpoint> CacheNodeForKey(const std::string& key) const;
  // The key's replica chain: the first min(R, live) distinct cache nodes
  // clockwise from the key's ring position, with R = config.cache_replication.
  // chain[0] is the primary (== CacheNodeForKey); empty when no cache node is
  // known. Front ends put to every chain member and read down the chain.
  using CacheChain = InlineVector<Endpoint, ConsistentHashRing::kInlineChain>;
  CacheChain CacheChainForKey(const std::string& key) const;
  // Cumulative count of cache-ring membership changes (joins + leaves), each of
  // which remaps ~1/N of the key space. Exposed so the front end can export it.
  uint64_t cache_membership_changes() const { return cache_membership_changes_; }

  size_t KnownWorkerCount(const std::string& type) const;
  std::vector<Endpoint> WorkersOfType(const std::string& type) const;
  // Predicted queue length of a worker right now (hint + delta extrapolation +
  // in-flight adjustment), as used for the lottery weights.
  double PredictedQueue(const Endpoint& worker, SimTime now) const;

  uint64_t beacons_seen() const { return beacons_seen_; }

 private:
  struct WorkerView {
    std::string type;
    double hint_queue = 0;
    DeltaEstimator estimator;
    int inflight = 0;
    SimTime last_seen = 0;  // Last beacon that listed this worker.
  };

  SnsConfig config_;
  Rng* rng_;
  size_t round_robin_ = 0;
  ManagerLink link_;
  SimTime last_beacon_ = -1;
  uint64_t beacons_seen_ = 0;
  uint64_t fenced_beacons_ = 0;
  std::unordered_map<Endpoint, WorkerView, EndpointHash> workers_;
  std::vector<Endpoint> cache_nodes_;
  ConsistentHashRing cache_ring_;
  uint64_t cache_membership_changes_ = 0;
  Endpoint profile_db_;
  uint64_t profile_db_generation_ = 0;
  bool quorate_ = true;
  int32_t votes_held_ = 0;
  int32_t votes_total_ = 0;
};

}  // namespace sns

#endif  // SRC_SNS_MANAGER_STUB_H_

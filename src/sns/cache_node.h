// A cache node: a worker "whose only job is the management of BASE data" (§3.1.5).
//
// Models a Harvest-derived object cache partition: stores original, post-
// transformation, and intermediate-state content (distillers inject transformed
// results). Service cost reflects the paper's measurements (§4.4): an average cache
// hit costs ~27 ms including TCP connection setup/teardown (~15 ms of it), because
// the Harvest protocol opens a fresh connection per request — clients of this cache
// send with force_new_connection.
//
// "All cached data can be thrown away at the cost of performance" — but with a
// replica factor R > 1 (SnsConfig::cache_replication) a crashed node no longer
// even costs performance: each node mirrors the manager stub's consistent-hash
// ring from the beaconed membership, and on any membership change runs a
// background rebalancer that walks its partition, re-pushes every entry to the
// other members of the entry's current replica chain, and drops entries the new
// chain no longer assigns to it. Rebalance pushes are throttled through a token
// bucket so migration traffic cannot starve request traffic on the SAN.

#ifndef SRC_SNS_CACHE_NODE_H_
#define SRC_SNS_CACHE_NODE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/process.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/sim/timer.h"
#include "src/sns/config.h"
#include "src/sns/manager_link.h"
#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"
#include "src/store/lru_cache.h"
#include "src/util/token_bucket.h"

namespace sns {

struct CacheNodeConfig {
  // CPU charged per operation (request parsing, hash lookup, I/O). With the forced
  // per-request TCP connection this lands hits at ~27 ms end-to-end (§4.4).
  SimDuration cpu_per_get = Milliseconds(8);
  // Flight-recorder sink for rebalance window start/end instants; optional
  // (SnsSystem wires its own EventLog in; standalone tests may leave it null).
  EventLog* event_log = nullptr;
};

class CacheNodeProcess : public Process {
 public:
  CacheNodeProcess(const SnsConfig& sns_config, const CacheNodeConfig& config);

  void OnStart() override;
  void OnStop() override;
  void OnMessage(const Message& msg) override;

  int64_t hits() const { return cache_.hits(); }
  int64_t misses() const { return cache_.misses(); }
  int64_t evictions() const { return cache_.evictions(); }
  int64_t rejected() const { return cache_.rejected(); }
  int64_t used_bytes() const { return cache_.used_bytes(); }
  size_t entry_count() const { return cache_.size(); }
  double outstanding_ops() const { return static_cast<double>(outstanding_); }
  bool HasKey(const std::string& key) const { return cache_.Contains(key); }
  // The entry under `key`, or null; neither promotes it nor counts a hit or miss.
  ContentPtr PeekContent(const std::string& key) const {
    const ContentPtr* entry = cache_.Peek(key);
    return entry != nullptr ? *entry : nullptr;
  }
  // Snapshot of resident keys (MRU first); used by the chaos replica-chain
  // convergence invariant to audit placement at quiesce.
  std::vector<std::string> CacheKeys() const;
  // This node's view of cache-tier membership (from the last accepted beacon).
  const std::vector<Endpoint>& ring_members() const { return ring_members_; }
  bool rebalance_active() const { return rebalance_active_; }
  int64_t rebalance_bytes_sent() const { return rebalance_bytes_ ? rebalance_bytes_->value() : 0; }
  int64_t rebalance_keys_pushed() const {
    return rebalance_pushed_ ? rebalance_pushed_->value() : 0;
  }

 private:
  void HandleBeacon(const ManagerBeaconPayload& beacon);
  void HandleGet(const Message& msg);
  void HandlePut(const Message& msg);
  void RefreshGauges();
  void ReportLoad();
  // This node's entry in the manager's soft state (registration and reports).
  LoadReportPayload Load() const;

  // --- Rebalancer -----------------------------------------------------------------
  // Starts (or restarts, on a further membership change) a pass over the local
  // partition, re-replicating every entry along its current chain.
  void StartRebalance();
  void RebalanceStep();
  void FinishRebalance();
  void PushEntry(const std::string& key, const ContentPtr& content, const Endpoint& peer);
  static bool InChain(const ConsistentHashRing& ring, const std::string& key, size_t r,
                      int64_t member);
  // Anti-entropy echo: a pass's snapshot misses entries that are still in flight
  // from peers when the snapshot is taken, so a relayed key could be stranded one
  // hop short of full replication. Every *newly learned* migrated entry is
  // therefore queued and, after a short settle, re-pushed along its whole chain
  // (an "echo" pass). Receivers detect already-known entries by content equality
  // and do not echo again, so propagation terminates.
  void ScheduleEchoPass();
  void StartEchoPass();

  SnsConfig sns_config_;
  CacheNodeConfig config_;
  LruCache<std::string, ContentPtr> cache_;
  ManagerLink manager_;
  int64_t outstanding_ = 0;

  // This node's mirror of the cache ring, fed from beaconed membership by the
  // same SyncCacheRing the manager stub uses, so both derive identical chains.
  ConsistentHashRing ring_;
  // Membership as of the last *completed* rebalance pass: the next pass pushes
  // only along chain deltas between this and the current ring, so a single-node
  // change migrates ~1/N of the partition instead of re-sending everything.
  ConsistentHashRing settled_ring_;
  std::vector<Endpoint> ring_members_;  // Sorted (node, port).
  TokenBucket rebalance_bucket_;
  bool rebalance_active_ = false;
  bool echo_pass_ = false;  // Current pass pushes full chains, not deltas.
  std::vector<std::string> rebalance_queue_;  // Keys snapshotted at pass start.
  size_t rebalance_pos_ = 0;
  EventId rebalance_timer_ = kInvalidEventId;
  std::set<std::string> echo_keys_;  // Migrated entries awaiting an echo pass.
  // Per-pass stats for the EventLog end-of-window entry.
  int64_t pass_pushed_ = 0;
  int64_t pass_bytes_ = 0;
  int64_t pass_dropped_ = 0;

  // Registry instruments under "cache.n<node>.*", bound in OnStart.
  Counter* gets_ = nullptr;
  Counter* puts_ = nullptr;
  Counter* expired_gets_ = nullptr;
  Counter* rebalance_passes_ = nullptr;
  Counter* rebalance_pushed_ = nullptr;
  Counter* rebalance_bytes_ = nullptr;
  Counter* rebalance_dropped_ = nullptr;
  Counter* rebalance_puts_in_ = nullptr;
  Gauge* hits_gauge_ = nullptr;
  Gauge* misses_gauge_ = nullptr;
  Gauge* used_bytes_gauge_ = nullptr;
  Gauge* rebalance_active_gauge_ = nullptr;
  std::unique_ptr<PeriodicTimer> report_timer_;
};

}  // namespace sns

#endif  // SRC_SNS_CACHE_NODE_H_

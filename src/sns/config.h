// Tunables for the SNS layer, with defaults taken from (or calibrated to) the
// paper's deployed TranSend configuration and measurements. The calibration no
// caller varies is a named constant; SnsConfig holds only what callers set.

#ifndef SRC_SNS_CONFIG_H_
#define SRC_SNS_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/util/time.h"

namespace sns {

// How the manager stub picks among interchangeable workers. The paper's system
// uses load-weighted lottery scheduling; the alternatives exist for the
// centralized-balancing ablation bench.
enum class BalancePolicy {
  kLottery,     // Tickets inversely proportional to predicted queue (paper §3.1.2).
  kRandom,      // Ignore load hints entirely.
  kRoundRobin,  // Static rotation, ignoring load.
};

// --- Soft-state beaconing (§3.1.2, §3.1.3) ---------------------------------------
// "The manager periodically beacons its existence on an IP multicast group".
inline constexpr SimDuration kManagerBeaconPeriod = Seconds(1);
// "periodically reports load information to the manager" — §4.6's capacity
// experiment has each distiller reporting every half second.
inline constexpr SimDuration kLoadReportPeriod = Milliseconds(500);
// Lease on a worker's registration; missing this many reports declares it dead.
inline constexpr SimDuration kWorkerTtl = Seconds(3);
// Lease on a front end's registration (manager restarts dead FEs).
inline constexpr SimDuration kFrontEndTtl = Seconds(5);
// FE-side: beacon silence after which the front end declares the manager dead and
// restarts it (process-peer fault tolerance).
inline constexpr SimDuration kManagerSilenceRestart = Seconds(4);
// How long the manager stub keeps a worker's view (estimator state, in-flight
// count) after the worker goes missing from a beacon. Beacons ride best-effort
// multicast, so a single dropped datagram must not reset a worker's load
// accounting; only sustained absence evicts. Survives two missed 1 Hz beacons.
inline constexpr SimDuration kBeaconAbsenceGrace = Milliseconds(2500);

// --- Quorum membership + fencing (MSCS regroup / cman votes; DESIGN.md §14) ------
// Vote-based membership: every infrastructure node registers kNodeVotes votes
// with the MembershipService; a manager asserts (or retains) leadership only
// while its side of the SAN holds a strict majority of the registered votes —
// a minority-side manager degrades to read-only (keeps beaconing with
// quorate=false, stops policy actions) instead of acting on a stale world view,
// and relaunch requests from non-quorate requesters are refused. Exact 50/50
// splits are broken by the quorum-disk lease.

// Votes per infrastructure node (cman's per-node `votes`). Client /
// load-generator nodes always carry zero votes.
inline constexpr int kNodeVotes = 1;
// Validity of a quorum-disk lease without renewal. Must exceed the beacon
// period (the renewal tick) by enough to ride out a couple of missed renewals.
inline constexpr SimDuration kQuorumDiskLease = Seconds(3);

// --- Load balancing (§3.1.2, §4.5) ---------------------------------------------
// Weight of the newest report in the manager's weighted moving average.
inline constexpr double kLoadEwmaAlpha = 0.3;

// --- Spawning policy (§4.5) -------------------------------------------------------
// The manager never reaps a type below this many workers.
inline constexpr int kMinWorkersPerType = 1;

// --- Timeouts (the BASE backstop failure detector, §2.2.4) ------------------------
// Cap on the retry backoff (SnsConfig::task_retry_backoff_base).
inline constexpr SimDuration kTaskRetryBackoffMax = Seconds(2);
// Deadline-aware admission: a worker refuses a task whose remaining budget
// cannot cover the queued backlog plus the task's own cost plus this headroom
// (the headroom absorbs the reply's network trip). Refusing up front lets the
// front end fall back to an approximate answer *early* — the paper's "graceful
// degradation" — instead of every queued task limping to exactly its deadline.
inline constexpr SimDuration kTaskAdmissionHeadroom = Milliseconds(50);
inline constexpr SimDuration kCacheTimeout = Seconds(5);
inline constexpr SimDuration kProfileTimeout = Seconds(2);

// --- Cache partitioning (§3.1.5, §4.4) -------------------------------------------
// Virtual points per cache node on the consistent-hash ring. The ring replaces
// mod-N partitioning so a node join/leave remaps only ~1/N of the key space.
inline constexpr int kCacheRingVnodes = 64;

// --- Cache replication (Gray's "packs"; beyond the paper's single-copy tier) -----
// Keys examined per rebalancer scheduling slice; bounds per-instant work so a
// scan of a large partition spreads across sim time.
inline constexpr int kCacheRebalanceBatchKeys = 32;

// --- Front end (§3.1.1, §4.4) ----------------------------------------------------
// Per-request front-end CPU (connection shepherding, dispatch logic).
inline constexpr SimDuration kFeCpuPerRequest = Milliseconds(1.0);

// --- Manager --------------------------------------------------------------------
// CPU charged to the manager's node per load announcement processed; drives the
// §4.6 manager-capacity experiment (900 distillers @ 2 reports/s).
inline constexpr SimDuration kManagerCpuPerReport = Microseconds(50);

// --- Monitor --------------------------------------------------------------------
inline constexpr SimDuration kMonitorReportPeriod = Seconds(1);
inline constexpr SimDuration kMonitorComponentTtl = Seconds(5);

// --- Flight recorder --------------------------------------------------------------
// Cadence at which the time-series recorder samples every registered metric plus
// the per-node CPU probes into its ring buffers.
inline constexpr SimDuration kTimeseriesInterval = Milliseconds(250);

struct SnsConfig {
  // --- Quorum membership + fencing ------------------------------------------------
  // Core-weighted vote layout: when > 0, the service-core nodes (manager, front
  // ends, cache nodes, profile DB, origin) carry this many votes each while the
  // worker-pool and overflow nodes keep kNodeVotes. Weighting the core means a
  // partition that strands half the (numerous, stateless) worker pool cannot
  // cost the manager quorum over the stateful tier — the cman per-node `votes`
  // knob applied along Gray's clones-vs-partitions split. 0 = uniform layout.
  int infra_node_votes = 0;

  // --- Load balancing (§3.1.2, §4.5) ---------------------------------------------
  // Manager-stub-side linear extrapolation of queue deltas between reports — the
  // fix for the oscillations described in §4.5. Disable for the ablation bench.
  bool use_delta_estimation = true;
  // Stub-side optimistic increment of a worker's predicted queue per in-flight task.
  bool track_inflight_tasks = true;
  BalancePolicy balance_policy = BalancePolicy::kLottery;

  // --- Spawning policy (§4.5) -------------------------------------------------------
  // Threshold H: spawn a new worker when a type's smoothed queue average crosses it.
  double spawn_threshold_h = 10.0;
  // Cooldown D: after spawning, give the system D seconds to stabilize.
  SimDuration spawn_cooldown_d = Seconds(12);
  // Reap overflow-node workers whose smoothed queue stays below this...
  double reap_threshold = 0.25;
  // ...for at least this long ("Once the burst subsides, the distillers may be
  // reaped", §3.1.2).
  SimDuration reap_idle_time = Seconds(30);
  // Max interchangeable workers colocated per node before using the next node.
  int max_workers_per_node = 1;

  // --- Timeouts (the BASE backstop failure detector, §2.2.4) ------------------------
  SimDuration task_timeout = Seconds(6);
  int task_retries = 2;          // "the request will time out and another worker
                                 //  will be chosen" (§3.1.8).
  // Retry discipline: the n-th retry waits base * 2^(n-1), capped at
  // kTaskRetryBackoffMax, with ±50% jitter, and excludes the worker that just
  // failed — an instant re-pick would hammer the same overloaded worker that
  // caused the timeout.
  SimDuration task_retry_backoff_base = Milliseconds(100);
  SimDuration fetch_timeout = Seconds(110);

  // --- Cache replication (Gray's "packs"; beyond the paper's single-copy tier) -----
  // Replica factor R for the cache volume: front ends write each put to the first
  // R distinct nodes clockwise from the key's ring position (the key's replica
  // chain) and read from the chain head, failing over down the chain on a miss or
  // timeout; a hit at a non-head replica triggers read-repair back up the chain.
  // R=1 reproduces the paper's single-copy tier, where "a crashed cache node
  // simply loses its partition".
  int cache_replication = 1;
  // Token-bucket cap on each cache node's rebalance traffic (bytes of cache
  // content pushed per second, plus an allowed burst) so a membership change
  // cannot starve request traffic on the SAN.
  double cache_rebalance_bytes_per_s = 4.0 * 1024 * 1024;
  double cache_rebalance_burst_bytes = 512.0 * 1024;

  // --- Front end (§3.1.1, §4.4) ----------------------------------------------------
  int fe_thread_pool_size = 400;  // "a single front-end of about 400 threads".
  // Byte capacity of the front end's in-process user-profile cache. Bounded (LRU)
  // so millions of distinct users cannot grow FE memory without limit.
  int64_t fe_profile_cache_bytes = 4 * 1024 * 1024;
};

// Length R of every cache replica chain: cache_replication, clamped to at least 1.
inline size_t CacheReplicaCount(const SnsConfig& config) {
  return config.cache_replication > 0 ? static_cast<size_t>(config.cache_replication) : 1;
}

}  // namespace sns

#endif  // SRC_SNS_CONFIG_H_

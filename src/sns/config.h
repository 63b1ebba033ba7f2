// Tunables for the SNS layer, with defaults taken from (or calibrated to) the
// paper's deployed TranSend configuration and measurements.

#ifndef SRC_SNS_CONFIG_H_
#define SRC_SNS_CONFIG_H_

#include <cstddef>

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

struct SnsConfig {
  // --- Soft-state beaconing (§3.1.2, §3.1.3) ---------------------------------------
  // "The manager periodically beacons its existence on an IP multicast group".
  SimDuration manager_beacon_period = Seconds(1);
  // "periodically reports load information to the manager" — §4.6's capacity
  // experiment has each distiller reporting every half second.
  SimDuration load_report_period = Milliseconds(500);
  // Lease on a worker's registration; missing this many reports declares it dead.
  SimDuration worker_ttl = Seconds(3);
  // Lease on a front end's registration (manager restarts dead FEs).
  SimDuration front_end_ttl = Seconds(5);
  // FE-side: beacon silence after which the front end declares the manager dead and
  // restarts it (process-peer fault tolerance).
  SimDuration manager_silence_restart = Seconds(4);
  // How long the manager stub keeps a worker's view (estimator state, in-flight
  // count) after the worker goes missing from a beacon. Beacons ride best-effort
  // multicast, so a single dropped datagram must not reset a worker's load
  // accounting; only sustained absence evicts. Default survives two missed 1 Hz
  // beacons.
  SimDuration beacon_absence_grace = Milliseconds(2500);

  // --- Quorum membership + fencing (MSCS regroup / cman votes; DESIGN.md §14) ------
  // Vote-based membership: every infrastructure node registers `node_votes` votes
  // with the MembershipService; a manager asserts (or retains) leadership only
  // while its side of the SAN holds a strict majority of the registered votes —
  // a minority-side manager degrades to read-only (keeps beaconing with
  // quorate=false, stops policy actions) instead of acting on a stale world view,
  // and relaunch requests from non-quorate requesters are refused. Exact 50/50
  // splits are broken by the quorum-disk lease.

  // Votes per infrastructure node (cman's per-node `votes`, default 1). Client /
  // load-generator nodes always carry zero votes.
  int node_votes = 1;
  // Core-weighted vote layout: when > 0, the service-core nodes (manager, front
  // ends, cache nodes, profile DB, origin) carry this many votes each while the
  // worker-pool and overflow nodes keep `node_votes`. Weighting the core means a
  // partition that strands half the (numerous, stateless) worker pool cannot
  // cost the manager quorum over the stateful tier — the cman per-node `votes`
  // knob applied along Gray's clones-vs-partitions split. 0 = uniform layout.
  int infra_node_votes = 0;
  // Validity of a quorum-disk lease without renewal. Must exceed the beacon
  // period (the renewal tick) by enough to ride out a couple of missed renewals.
  SimDuration quorum_disk_lease = Seconds(3);

  // --- Load balancing (§3.1.2, §4.5) ---------------------------------------------
  // Weight of the newest report in the manager's weighted moving average.
  double load_ewma_alpha = 0.3;
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
  int min_workers_per_type = 1;
  // Max interchangeable workers colocated per node before using the next node.
  int max_workers_per_node = 1;

  // --- Timeouts (the BASE backstop failure detector, §2.2.4) ------------------------
  SimDuration task_timeout = Seconds(6);
  int task_retries = 2;          // "the request will time out and another worker
                                 //  will be chosen" (§3.1.8).
  // Retry discipline: the n-th retry waits base * 2^(n-1), capped at max, with
  // ±50% jitter, and excludes the worker that just failed — an instant re-pick
  // would hammer the same overloaded worker that caused the timeout.
  SimDuration task_retry_backoff_base = Milliseconds(100);
  SimDuration task_retry_backoff_max = Seconds(2);
  // Deadline-aware admission: a worker refuses a task whose remaining budget
  // cannot cover the queued backlog plus the task's own cost plus this headroom
  // (the headroom absorbs the reply's network trip). Refusing up front lets the
  // front end fall back to an approximate answer *early* — the paper's "graceful
  // degradation" — instead of every queued task limping to exactly its deadline.
  SimDuration task_admission_headroom = Milliseconds(50);
  SimDuration cache_timeout = Seconds(5);
  SimDuration profile_timeout = Seconds(2);
  SimDuration fetch_timeout = Seconds(110);

  // --- Cache partitioning (§3.1.5, §4.4) -------------------------------------------
  // Virtual points per cache node on the consistent-hash ring. The ring replaces
  // mod-N partitioning so a node join/leave remaps only ~1/N of the key space.
  int cache_ring_vnodes = 64;

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
  // Keys examined per rebalancer scheduling slice; bounds per-instant work so a
  // scan of a large partition spreads across sim time.
  int cache_rebalance_batch_keys = 32;

  // --- Front end (§3.1.1, §4.4) ----------------------------------------------------
  int fe_thread_pool_size = 400;  // "a single front-end of about 400 threads".
  // Per-request front-end CPU (connection shepherding, dispatch logic).
  SimDuration fe_cpu_per_request = Milliseconds(1.0);
  // Byte capacity of the front end's in-process user-profile cache. Bounded (LRU)
  // so millions of distinct users cannot grow FE memory without limit.
  int64_t fe_profile_cache_bytes = 4 * 1024 * 1024;

  // --- Manager --------------------------------------------------------------------
  // CPU charged to the manager's node per load announcement processed; drives the
  // §4.6 manager-capacity experiment (900 distillers @ 2 reports/s).
  SimDuration manager_cpu_per_report = Microseconds(50);

  // --- Monitor --------------------------------------------------------------------
  SimDuration monitor_report_period = Seconds(1);
  SimDuration monitor_component_ttl = Seconds(5);

  // --- Flight recorder --------------------------------------------------------------
  // Cadence at which the time-series recorder samples every registered metric plus
  // the per-node CPU probes into its ring buffers.
  SimDuration timeseries_interval = Milliseconds(250);
};

// Length R of every cache replica chain: cache_replication, clamped to at least 1.
inline size_t CacheReplicaCount(const SnsConfig& config) {
  return config.cache_replication > 0 ? static_cast<size_t>(config.cache_replication) : 1;
}

}  // namespace sns

#endif  // SRC_SNS_CONFIG_H_

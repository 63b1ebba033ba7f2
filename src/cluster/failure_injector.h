// Failure injection: scripted and randomized crashes of processes, nodes, and SAN
// partitions.
//
// Used by the fault-tolerance experiments (paper §4.5 manually kills two distillers
// mid-run), by the property tests that assert the system masks arbitrary transient
// faults, and by the chaos-campaign harness (src/chaos), which compiles a seeded
// fault schedule into scripted calls on this class.

#ifndef SRC_CLUSTER_FAILURE_INJECTOR_H_
#define SRC_CLUSTER_FAILURE_INJECTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace sns {

class FailureInjector {
 public:
  FailureInjector(Cluster* cluster, San* san) : cluster_(cluster), san_(san) {}

  // --- Scripted faults ----------------------------------------------------------
  void CrashProcessAt(SimTime when, ProcessId pid);
  void CrashNodeAt(SimTime when, NodeId node);
  void RestartNodeAt(SimTime when, NodeId node);
  // Splits `minority` into a freshly allocated partition group at `when`, healing
  // only that group at `heal_at` (kTimeNever = permanent). Each call gets its own
  // group, so overlapping splits coexist and heal independently. Returns the
  // allocated group id.
  int32_t PartitionAt(SimTime when, const std::vector<NodeId>& minority, SimTime heal_at);
  // Suppresses every multicast send to `group` during [when, when + duration) —
  // the beacon-loss fault (paper §4.6's lost control traffic, made injectable).
  void BeaconLossAt(SimTime when, McastGroup group, SimDuration duration);

  // --- Randomized faults ----------------------------------------------------------
  // Crashes processes selected by `victim_picker` (returns kInvalidProcess to skip a
  // round) at exponentially distributed intervals with the given mean, until
  // `until`. Process-peer fault tolerance should keep the service up throughout.
  void RandomProcessCrashes(Rng* rng, SimDuration mean_interval, SimTime until,
                            std::function<ProcessId()> victim_picker);

  // --- Observability --------------------------------------------------------------
  int64_t injected_count() const { return injected_; }
  // Human-readable, sim-time-stamped record of every fault actually applied (in
  // injection order); deterministic for a given seed, so chaos traces can diff it.
  const std::vector<std::string>& event_log() const { return events_; }

  // Also forwards every applied fault to `sink` (sim time + description) — the
  // flight recorder's fault instants, in the artifact's availability.faults.
  void set_event_sink(std::function<void(SimTime, const std::string&)> sink) {
    event_sink_ = std::move(sink);
  }

 private:
  void ScheduleNextRandomCrash(Rng* rng, SimDuration mean_interval, SimTime until,
                               std::function<ProcessId()> victim_picker);
  void LogEvent(const std::string& what);

  Cluster* cluster_;
  San* san_;
  int64_t injected_ = 0;
  int32_t next_group_ = 1;  // Partition groups allocated per PartitionAt call.
  std::vector<std::string> events_;
  std::function<void(SimTime, const std::string&)> event_sink_;
};

}  // namespace sns

#endif  // SRC_CLUSTER_FAILURE_INJECTOR_H_

// Interface through which SNS components start or restart other components.
//
// The paper's process-peer fault tolerance (§3.1.3) has components restart each
// other: the manager restarts crashed front ends, front ends restart a crashed
// manager, and the manager spawns workers on demand. The concrete launcher lives in
// SnsSystem (src/sns/system.h), which knows each component's construction recipe.

#ifndef SRC_SNS_LAUNCHER_H_
#define SRC_SNS_LAUNCHER_H_

#include <string>

#include "src/cluster/process.h"

namespace sns {

class ComponentLauncher {
 public:
  virtual ~ComponentLauncher() = default;

  // Spawns a worker of `type` on `node`. Returns kInvalidProcess on failure.
  virtual ProcessId LaunchWorker(const std::string& type, NodeId node) = 0;

  // Ensures a manager usable by `requester` is running, starting one if needed.
  // Idempotence is reachability-aware: an incumbent that is alive AND reachable
  // from the requester's node makes the call a no-op, but an incumbent stranded on
  // the far side of a SAN partition does not block failover — a replacement (with a
  // higher epoch) is spawned on a node the requester can reach. kInvalidNode means
  // "no particular vantage point" (bootstrap, tests): plain existence suffices.
  virtual ProcessId RelaunchManager(NodeId requester = kInvalidNode) = 0;

  // Ensures front end `fe_index` is running and reachable from `requester`,
  // restarting it if needed (same reachability contract as RelaunchManager).
  virtual ProcessId RelaunchFrontEnd(int fe_index, NodeId requester = kInvalidNode) = 0;

  // Ensures a profile database usable by `requester` is running (the paper's
  // commercial deployments use primary/backup failover for the ACID component,
  // §3.2; here the manager detects the silence and fails over to a fresh
  // incarnation — with a higher generation — recovering from the shared WAL).
  // Same reachability-aware idempotence contract as RelaunchManager; an
  // alive-but-unreachable incumbent is fenced (STONITH) before the successor
  // starts.
  virtual ProcessId RelaunchProfileDb(NodeId requester = kInvalidNode) = 0;
};

}  // namespace sns

#endif  // SRC_SNS_LAUNCHER_H_

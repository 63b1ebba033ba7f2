// A component's link to the manager it follows (paper §3.1.2, §3.1.3).
//
// Every component listens to the manager's beacons. It follows the highest manager
// epoch it has heard, registers whenever a new incarnation appears, and refreshes
// its entry with periodic load reports. That soft-state protocol is the whole of
// crash recovery, and this header is its only definition: the worker, the cache
// node, the profile DB, the front end's manager stub and the monitor each hold a
// ManagerLink. Registrations and reports carry the followed epoch, so a stale
// manager that hears one learns it has been superseded and demotes (DESIGN.md §10).

#ifndef SRC_SNS_MANAGER_LINK_H_
#define SRC_SNS_MANAGER_LINK_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"

namespace sns {

class ManagerLink {
 public:
  enum class Sighting {
    kStale,  // From an incarnation older than the one followed: act on nothing.
    kSame,   // From the manager already followed.
    kNew,    // From another manager (first sighting, restart, failover): register.
  };

  // Feeds a received beacon. This is the one epoch-fencing rule: after a partition
  // heals, a stranded manager may beacon a few more times before it demotes, and
  // acting on those would flap the component's view back to the stale incarnation.
  // Epoch 0 (hand-built beacons in unit tests) fences nothing.
  Sighting Follow(const ManagerBeaconPayload& beacon) {
    if (beacon.epoch < epoch_) {
      return Sighting::kStale;
    }
    epoch_ = beacon.epoch;
    if (beacon.manager == manager_) {
      return Sighting::kSame;
    }
    manager_ = beacon.manager;
    return Sighting::kNew;
  }

  bool known() const { return manager_.valid(); }
  const Endpoint& manager() const { return manager_; }

  // Registration with the followed manager: reliable, 96 bytes plus the worker
  // type, stamped with the followed epoch.
  Message Registration(LoadReportPayload payload) const {
    return Stamped(kMsgRegisterComponent, Transport::kReliable, 96, std::move(payload));
  }
  // Periodic load report: a best-effort datagram (loss is tolerated, the entry is
  // soft state) of 80 bytes plus the worker type, stamped with the followed epoch.
  Message Report(LoadReportPayload payload) const {
    return Stamped(kMsgLoadReport, Transport::kDatagram, 80, std::move(payload));
  }

 private:
  Message Stamped(SnsMsgType type, Transport transport, int64_t header_bytes,
                  LoadReportPayload payload) const {
    payload.manager_epoch = epoch_;
    Message msg;
    msg.dst = manager_;
    msg.type = type;
    msg.transport = transport;
    msg.size_bytes = header_bytes + static_cast<int64_t>(payload.worker_type.size());
    msg.payload = std::make_shared<LoadReportPayload>(std::move(payload));
    return msg;
  }

  Endpoint manager_;
  uint64_t epoch_ = 0;
};

// Mirrors a beacon's cache membership onto a consistent-hash ring with the shared
// member encoding (CacheRingMemberId), so the manager stub and every cache node
// derive identical replica chains. The ring changes incrementally: surviving
// members keep their keys. `members` is the previous membership, sorted by
// (node, port), and becomes `fresh` sorted. Returns joins plus leaves.
inline size_t SyncCacheRing(std::vector<Endpoint> fresh, std::vector<Endpoint>* members,
                            ConsistentHashRing* ring) {
  std::sort(fresh.begin(), fresh.end(), [](const Endpoint& a, const Endpoint& b) {
    return a.node != b.node ? a.node < b.node : a.port < b.port;
  });
  size_t changes = 0;
  for (const Endpoint& ep : *members) {
    if (std::find(fresh.begin(), fresh.end(), ep) == fresh.end()) {
      ring->RemoveMember(CacheRingMemberId(ep));
      ++changes;
    }
  }
  for (const Endpoint& ep : fresh) {
    if (!ring->HasMember(CacheRingMemberId(ep))) {
      ring->AddMember(CacheRingMemberId(ep));
      ++changes;
    }
  }
  *members = std::move(fresh);
  return changes;
}

}  // namespace sns

#endif  // SRC_SNS_MANAGER_LINK_H_

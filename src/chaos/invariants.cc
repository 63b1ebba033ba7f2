#include "src/chaos/invariants.h"

#include <algorithm>
#include <set>

#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// Every live process of type T anywhere in the cluster, discovered by walking the
// process table rather than the system's bookkeeping (which only tracks the
// incarnations it launched most recently).
template <typename T>
std::vector<T*> LiveProcessesOfType(SnsSystem* system) {
  std::vector<T*> out;
  Cluster* cluster = system->cluster();
  for (NodeId node : cluster->AllNodes()) {
    for (ProcessId pid : cluster->ProcessesOnNode(node)) {
      auto* p = dynamic_cast<T*>(cluster->Find(pid));
      if (p != nullptr) {
        out.push_back(p);
      }
    }
  }
  return out;
}

std::set<std::pair<NodeId, Port>> EndpointSet(const std::vector<Endpoint>& endpoints) {
  std::set<std::pair<NodeId, Port>> out;
  for (const Endpoint& ep : endpoints) {
    out.insert({ep.node, ep.port});
  }
  return out;
}

std::string DescribeEndpointSet(const std::set<std::pair<NodeId, Port>>& set) {
  std::string out = "{";
  bool first = true;
  for (const auto& [node, port] : set) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("n%d:%d", node, port);
  }
  return out + "}";
}

}  // namespace

std::string InvariantReport::ToString() const {
  if (ok()) {
    return "all invariants hold\n";
  }
  std::string out = StrFormat("%zu invariant violation(s):\n", violations.size());
  for (const InvariantViolation& v : violations) {
    out += StrFormat("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
  return out;
}

std::vector<ManagerProcess*> LiveManagers(SnsSystem* system) {
  return LiveProcessesOfType<ManagerProcess>(system);
}

std::vector<FrontEndProcess*> LiveFrontEndProcesses(SnsSystem* system) {
  return LiveProcessesOfType<FrontEndProcess>(system);
}

std::vector<CacheNodeProcess*> LiveCacheNodeProcesses(SnsSystem* system) {
  return LiveProcessesOfType<CacheNodeProcess>(system);
}

std::vector<ProfileDbProcess*> LiveProfileDbProcesses(SnsSystem* system) {
  return LiveProcessesOfType<ProfileDbProcess>(system);
}

InvariantReport CheckInvariantsAtQuiesce(SnsSystem* system,
                                         const std::vector<PlaybackEngine*>& clients,
                                         const ProfileWriteLedger* writes) {
  InvariantReport report;
  auto violate = [&report](const char* invariant, std::string detail) {
    report.violations.push_back({invariant, std::move(detail)});
  };

  // 6. The durable-write contract. Checked first (and independently of the
  // manager census): losing an acknowledged write is the headline violation and
  // must be reported even when the run also wedged the control plane.
  if (writes != nullptr) {
    for (const ProfileWriteLedger::Entry& entry : writes->entries) {
      if (!entry.acked) {
        continue;  // Unacked writes may or may not have landed; both are legal.
      }
      auto record = system->profile_store()->Get(entry.user_id);
      if (!record.has_value()) {
        violate("acked-write-durable",
                StrFormat("acked write for user '%s' missing from profile store",
                          entry.user_id.c_str()));
        continue;
      }
      auto profile = UserProfile::Deserialize(entry.user_id, *record);
      if (!profile.ok() || profile->GetOr(entry.pref_key, "") != entry.pref_value) {
        violate("acked-write-durable",
                StrFormat("acked write for user '%s' lost: %s=%s not in store",
                          entry.user_id.c_str(), entry.pref_key.c_str(),
                          entry.pref_value.c_str()));
      }
    }
  }
  int64_t nonquorate =
      system->metrics()->GetCounter("profiledb.writes_nonquorate")->value();
  if (nonquorate > 0) {
    violate("no-minority-ack",
            StrFormat("%lld profile write(s) committed while non-quorate",
                      static_cast<long long>(nonquorate)));
  }

  // 7. Eventually exactly one live profile-DB incarnation.
  std::vector<ProfileDbProcess*> dbs = LiveProfileDbProcesses(system);
  if (dbs.size() != 1) {
    std::string detail = StrFormat("%zu live profile-db incarnation(s):", dbs.size());
    for (ProfileDbProcess* db : dbs) {
      detail += StrFormat(" gen=%llu@n%d", static_cast<unsigned long long>(db->generation()),
                          db->node());
    }
    violate("exactly-one-profile-db", detail);
  }

  // 1. Eventually exactly one live manager.
  std::vector<ManagerProcess*> managers = LiveManagers(system);
  if (managers.size() != 1) {
    std::string detail = StrFormat("%zu live manager incarnation(s):", managers.size());
    for (ManagerProcess* m : managers) {
      detail += StrFormat(" epoch=%llu@n%d", static_cast<unsigned long long>(m->epoch()),
                          m->node());
    }
    violate("exactly-one-manager", detail);
    return report;  // The roster/ring checks are meaningless with 0 or 2 managers.
  }
  ManagerProcess* manager = managers[0];

  // 2. Every client request answered or expired; none late, none leaked.
  for (size_t i = 0; i < clients.size(); ++i) {
    PlaybackEngine* client = clients[i];
    int64_t accounted =
        client->completed() + client->timeouts() + client->send_failures();
    if (client->sent() != accounted || client->outstanding() != 0) {
      violate("answered-or-expired",
              StrFormat("client %zu: sent=%lld != completed=%lld + timeouts=%lld + "
                        "send_failures=%lld (outstanding=%lld)",
                        i, static_cast<long long>(client->sent()),
                        static_cast<long long>(client->completed()),
                        static_cast<long long>(client->timeouts()),
                        static_cast<long long>(client->send_failures()),
                        static_cast<long long>(client->outstanding())));
    }
    // Late completions (an OK response landing between deadline and timeout) are
    // NOT a violation: the end-to-end deadline is best-effort — a response
    // already in flight when the deadline passes is still delivered. They are
    // surfaced in the run trace, and conservation above still accounts them.
  }

  // 3. Soft-state roster converged to the live roster.
  size_t live_workers = system->live_workers().size();
  if (manager->KnownWorkerCount() != live_workers) {
    violate("roster-convergence",
            StrFormat("manager knows %zu worker(s), %zu live",
                      manager->KnownWorkerCount(), live_workers));
  }
  size_t live_fes = LiveFrontEndProcesses(system).size();
  if (manager->KnownFrontEndCount() != live_fes) {
    violate("roster-convergence",
            StrFormat("manager knows %zu front end(s), %zu live",
                      manager->KnownFrontEndCount(), live_fes));
  }

  // 4. Every front end's cache ring matches the live cache nodes.
  std::vector<Endpoint> cache_eps;
  for (CacheNodeProcess* cache : LiveCacheNodeProcesses(system)) {
    cache_eps.push_back(cache->endpoint());
  }
  auto live_cache_set = EndpointSet(cache_eps);
  for (FrontEndProcess* fe : LiveFrontEndProcesses(system)) {
    auto ring_set = EndpointSet(fe->stub().cache_nodes());
    if (ring_set != live_cache_set) {
      violate("cache-ring-convergence",
              StrFormat("fe %d ring %s != live caches %s", fe->fe_index(),
                        DescribeEndpointSet(ring_set).c_str(),
                        DescribeEndpointSet(live_cache_set).c_str()));
    }
  }

  // 5. Replica-chain convergence across the cache tier.
  std::vector<CacheNodeProcess*> caches = LiveCacheNodeProcesses(system);
  for (CacheNodeProcess* cache : caches) {
    auto view = EndpointSet(cache->ring_members());
    if (view != live_cache_set) {
      violate("replica-chain-convergence",
              StrFormat("cache n%d membership view %s != live caches %s", cache->node(),
                        DescribeEndpointSet(view).c_str(),
                        DescribeEndpointSet(live_cache_set).c_str()));
    }
    if (cache->rebalance_active()) {
      violate("replica-chain-convergence",
              StrFormat("cache n%d rebalance still active at quiesce", cache->node()));
    }
  }

  // Canonical chains from the live membership, with the same member encoding and
  // vnode count every node uses, so this recomputes exactly what they computed.
  const SnsConfig& config = system->config();
  ConsistentHashRing canonical(kCacheRingVnodes);
  for (const Endpoint& ep : cache_eps) {
    canonical.AddMember(CacheRingMemberId(ep));
  }
  size_t r = CacheReplicaCount(config);
  // Completeness (every chain member holds the key) is only decidable if no node
  // ever evicted or rejected an entry: capacity pressure legitimately leaves
  // holes. Orphans (holding a key outside one's chain) are a violation always.
  bool lossless = true;
  for (CacheNodeProcess* cache : caches) {
    if (cache->evictions() > 0 || cache->rejected() > 0) {
      lossless = false;
    }
  }
  for (CacheNodeProcess* cache : caches) {
    int64_t self = CacheRingMemberId(cache->endpoint());
    for (const std::string& key : cache->CacheKeys()) {
      ConsistentHashRing::Chain chain = canonical.LookupN(key, r);
      if (std::find(chain.begin(), chain.end(), self) == chain.end()) {
        violate("replica-chain-convergence",
                StrFormat("cache n%d holds orphan key '%s' outside its chain",
                          cache->node(), key.c_str()));
        continue;
      }
      if (!lossless) continue;
      for (int64_t member : chain) {
        if (member == self) continue;
        Endpoint peer_ep = CacheRingMemberEndpoint(member);
        for (CacheNodeProcess* peer : caches) {
          if (peer->endpoint().node == peer_ep.node &&
              peer->endpoint().port == peer_ep.port && !peer->HasKey(key)) {
            violate("replica-chain-convergence",
                    StrFormat("key '%s' missing from chain member n%d (held by n%d)",
                              key.c_str(), peer->node(), cache->node()));
          }
        }
      }
    }
  }

  return report;
}

}  // namespace sns

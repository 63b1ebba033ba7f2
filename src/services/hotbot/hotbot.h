// HotBot, assembled (paper §3.2, Table 1): static data partitioning, parallel
// query scatter/gather, per-node multi-threaded HTTP front ends, an ACID profile
// database, and fast shard restart after node failures.

#ifndef SRC_SERVICES_HOTBOT_HOTBOT_H_
#define SRC_SERVICES_HOTBOT_HOTBOT_H_

#include <memory>
#include <vector>

#include "src/services/hotbot/hotbot_logic.h"
#include "src/services/hotbot/inverted_index.h"
#include "src/services/hotbot/search_worker.h"
#include "src/sns/system.h"
#include "src/workload/playback.h"

namespace sns {

struct HotBotOptions {
  SnsConfig sns;
  SystemTopology topology;
  HotBotLogicConfig logic;
  CorpusConfig corpus;
};

// Defaults modeled on the paper: HTTP front ends run 50-80 threads per node (§3.2);
// dynamic spawning is effectively disabled (workers are bound to their partitions);
// a result cache holds recent searches.
HotBotOptions DefaultHotBotOptions();

class HotBotService {
 public:
  explicit HotBotService(const HotBotOptions& options = DefaultHotBotOptions());

  // Starts the system and pins one worker per shard onto the worker pool.
  void Start();

  PlaybackEngine* AddPlaybackEngine(uint64_t seed = 0xB07);

  SnsSystem* system() { return &system_; }
  Simulator* sim() { return system_.sim(); }
  const std::vector<ShardPtr>& shards() const { return shards_; }
  const HotBotOptions& options() const { return options_; }
  int64_t TotalDocuments() const;

  // Builds a query TraceRecord for the playback engine.
  TraceRecord MakeQuery(const std::string& user, const std::string& query) const;

 private:
  HotBotOptions options_;
  std::vector<ShardPtr> shards_;
  SnsSystem system_;
  std::vector<ProcessId> playback_pids_;
};

}  // namespace sns

#endif  // SRC_SERVICES_HOTBOT_HOTBOT_H_

#include "src/services/hotbot/hotbot.h"

namespace sns {

HotBotOptions DefaultHotBotOptions() {
  HotBotOptions options;
  options.corpus.doc_count = 20000;

  // "The HTTP front ends in HotBot run 50-80 threads per node" (§3.2).
  options.sns.fe_thread_pool_size = 64;
  // Workers are statically bound to partitions; the queue-threshold spawner stays
  // out of the way (replacement after a crash still works via spawn requests).
  options.sns.spawn_threshold_h = 1e9;

  options.topology.front_ends = 2;
  options.topology.cache_nodes = 2;  // The integrated cache of recent searches.
  options.topology.worker_pool_nodes = options.logic.shard_count + 2;  // Headroom for restarts.
  options.topology.with_origin = false;
  return options;
}

HotBotService::HotBotService(const HotBotOptions& options)
    : options_(options),
      shards_(BuildShardedCorpus(options.corpus, options.logic.shard_count)),
      system_(options.sns, options.topology) {
  RegisterSearchShards(system_.registry(), shards_);
  system_.set_logic_factory([logic_config = options_.logic](int /*fe_index*/) {
    return std::make_shared<HotBotLogic>(logic_config);
  });
}

void HotBotService::Start() {
  system_.Start();
  for (int shard = 0; shard < options_.logic.shard_count; ++shard) {
    system_.StartWorker(SearchShardType(shard));
  }
}

PlaybackEngine* HotBotService::AddPlaybackEngine(uint64_t seed) {
  NodeConfig client;
  client.workers_allowed = false;
  NodeId node = system_.cluster()->AddNode(client);
  PlaybackConfig config;
  config.seed = seed;
  config.front_ends = [this](std::vector<Endpoint>* out) { system_.LiveFrontEndEndpoints(out); };
  config.availability = system_.availability();
  auto engine = std::make_unique<PlaybackEngine>(config);
  PlaybackEngine* raw = engine.get();
  ProcessId pid = system_.cluster()->Spawn(node, std::move(engine));
  if (pid == kInvalidProcess) {
    return nullptr;
  }
  playback_pids_.push_back(pid);
  return raw;
}

int64_t HotBotService::TotalDocuments() const {
  int64_t total = 0;
  for (const ShardPtr& shard : shards_) {
    total += shard->doc_count();
  }
  return total;
}

TraceRecord HotBotService::MakeQuery(const std::string& user, const std::string& query) const {
  TraceRecord record;
  record.user_id = user;
  record.url = "http://www.hotbot.com/search?q=" + query;
  record.params[kArgQuery] = query;
  (void)this;
  return record;
}

}  // namespace sns

// HotBot demo: the cluster search engine — parallel scatter/gather over statically
// partitioned inverted-index shards, the recent-search cache, and graceful
// degradation when a partition dies mid-flight (paper §3.2).
//
// Run:  ./build/examples/hotbot_demo

#include <cstdio>

#include "src/services/hotbot/hotbot.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"

namespace sns {
namespace {

void Run() {
  Logger::Get().set_min_level(LogLevel::kWarning);

  HotBotOptions options = DefaultHotBotOptions();
  options.logic.shard_count = 6;
  options.corpus.doc_count = 30000;
  options.topology.worker_pool_nodes = 8;
  HotBotService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  std::printf("HotBot: %lld documents across %d randomly-partitioned shards\n",
              static_cast<long long>(service.TotalDocuments()), options.logic.shard_count);
  for (const ShardPtr& shard : service.shards()) {
    std::printf("  shard %d: %lld docs, %lld terms, %lld postings\n", shard->shard_id(),
                static_cast<long long>(shard->doc_count()),
                static_cast<long long>(shard->term_count()),
                static_cast<long long>(shard->posting_count()));
  }

  std::string query = VocabularyWord(3) + " " + VocabularyWord(17);
  std::printf("\n--- query \"%s\" (scatter to all %d shards in parallel) ---\n", query.c_str(),
              options.logic.shard_count);
  client->SendRequest(service.MakeQuery("user1", query));
  service.sim()->RunFor(Seconds(15));
  std::printf("  completed=%lld  latency=%.3f s\n",
              static_cast<long long>(client->completed()), client->latency_stats().max());

  std::printf("\n--- same query again (integrated cache of recent searches) ---\n");
  client->SendRequest(service.MakeQuery("user2", query));
  service.sim()->RunFor(Seconds(10));
  std::printf("  completed=%lld  latency=%.3f s (cache hit)\n",
              static_cast<long long>(client->completed()), client->latency_stats().min());

  std::printf("\n--- killing shard 0's node (the paper's cluster-move scenario) ---\n");
  auto victims = service.system()->live_workers(SearchShardType(0));
  if (!victims.empty()) {
    int64_t lost = service.shards()[0]->doc_count();
    service.system()->cluster()->Crash(victims[0]->pid());
    std::printf("  database drops from %lld to ~%lld documents until the shard restarts\n",
                static_cast<long long>(service.TotalDocuments()),
                static_cast<long long>(service.TotalDocuments() - lost));
  }
  client->SendRequest(service.MakeQuery("user3", VocabularyWord(5) + " fresh"));
  service.sim()->RunFor(Seconds(30));
  std::printf("  completed=%lld (answers kept flowing; partial results are approximate\n"
              "  answers, and the shard respawns via the manager)\n",
              static_cast<long long>(client->completed()));
  std::printf("  shard 0 live again: %s\n",
              service.system()->live_workers(SearchShardType(0)).empty() ? "no" : "yes");

  std::printf("\nresponses by source: ");
  for (const auto& [source, count] : client->responses_by_source()) {
    std::printf("%s=%lld  ", source.c_str(), static_cast<long long>(count));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

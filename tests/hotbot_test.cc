// Tests for the HotBot service: the inverted index substrate, shard workers, the
// result wire format, and the full scatter/gather system with graceful degradation.

#include <gtest/gtest.h>

#include "src/services/extras/palm_transform.h"
#include "src/services/hotbot/hotbot.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// ---------- inverted index ------------------------------------------------------------

TEST(InvertedIndexTest, SingleTermSearchRanksByTf) {
  InvertedIndexShard shard(0);
  shard.AddDocument({1, "one", {"apple"}});
  shard.AddDocument({2, "two", {"apple", "apple", "apple"}});
  shard.AddDocument({3, "three", {"banana"}});
  auto hits = shard.Search({"apple"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 2);  // Higher TF first.
  EXPECT_EQ(hits[1].doc_id, 1);
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(InvertedIndexTest, ConjunctiveSearchIntersects) {
  InvertedIndexShard shard(0);
  shard.AddDocument({1, "", {"apple", "banana"}});
  shard.AddDocument({2, "", {"apple"}});
  shard.AddDocument({3, "", {"banana"}});
  auto hits = shard.Search({"apple", "banana"}, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 1);
}

TEST(InvertedIndexTest, MissingTermYieldsEmpty) {
  InvertedIndexShard shard(0);
  shard.AddDocument({1, "", {"apple"}});
  EXPECT_TRUE(shard.Search({"apple", "zebra"}, 10).empty());
  EXPECT_TRUE(shard.Search({}, 10).empty());
}

TEST(InvertedIndexTest, TopKTruncatesDeterministically) {
  InvertedIndexShard shard(0);
  for (int64_t i = 0; i < 50; ++i) {
    shard.AddDocument({i, "", {"term"}});
  }
  auto hits = shard.Search({"term"}, 10);
  ASSERT_EQ(hits.size(), 10u);
  // Equal scores: ascending doc id tiebreak.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LT(hits[i - 1].doc_id, hits[i].doc_id);
  }
}

TEST(InvertedIndexTest, CandidatePostingsSumsListLengths) {
  InvertedIndexShard shard(0);
  shard.AddDocument({1, "", {"a", "b"}});
  shard.AddDocument({2, "", {"a"}});
  EXPECT_EQ(shard.CandidatePostings({"a", "b"}), 3);
  EXPECT_EQ(shard.CandidatePostings({"zzz"}), 0);
}

TEST(CorpusTest, RandomShardingCoversAllDocuments) {
  CorpusConfig config;
  config.doc_count = 5000;
  auto shards = BuildShardedCorpus(config, 8);
  ASSERT_EQ(shards.size(), 8u);
  int64_t total = 0;
  for (const ShardPtr& shard : shards) {
    EXPECT_GT(shard->doc_count(), 300);  // Roughly balanced random split.
    total += shard->doc_count();
  }
  EXPECT_EQ(total, 5000);
}

TEST(CorpusTest, DeterministicForSeed) {
  CorpusConfig config;
  config.doc_count = 1000;
  auto a = BuildShardedCorpus(config, 4);
  auto b = BuildShardedCorpus(config, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)]->doc_count(), b[static_cast<size_t>(i)]->doc_count());
    EXPECT_EQ(a[static_cast<size_t>(i)]->posting_count(),
              b[static_cast<size_t>(i)]->posting_count());
  }
}

// ---------- shard worker & wire format ----------------------------------------------------

TEST(SearchWorkerTest, ProcessReturnsParsableResults) {
  CorpusConfig config;
  config.doc_count = 2000;
  auto shards = BuildShardedCorpus(config, 2);
  SearchShardWorker worker(shards[0]);
  EXPECT_FALSE(worker.interchangeable());  // Partitions are not substitutes (§3.2).

  TaccRequest request;
  request.url = "http://hotbot/q";
  request.args[kArgQuery] = VocabularyWord(0) + " " + VocabularyWord(1);
  request.args[kArgTopK] = "5";
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());
  auto decoded = DecodeSearchResults(result.output->bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard_id, 0);
  EXPECT_EQ(decoded->doc_count, shards[0]->doc_count());
  EXPECT_LE(decoded->hits.size(), 5u);
}

TEST(SearchWorkerTest, EmptyQueryFails) {
  CorpusConfig config;
  config.doc_count = 100;
  auto shards = BuildShardedCorpus(config, 1);
  SearchShardWorker worker(shards[0]);
  TaccRequest request;
  EXPECT_FALSE(worker.Process(request).status.ok());
}

TEST(SearchWorkerTest, EncodeDecodeRoundTrip) {
  std::vector<SearchHit> hits = {{7, 3.5, "Title A"}, {9, 1.0, "Title B"}};
  auto bytes = EncodeSearchResults(3, 12345, hits);
  auto decoded = DecodeSearchResults(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard_id, 3);
  EXPECT_EQ(decoded->doc_count, 12345);
  ASSERT_EQ(decoded->hits.size(), 2u);
  EXPECT_EQ(decoded->hits[0].doc_id, 7);
  EXPECT_NEAR(decoded->hits[0].score, 3.5, 1e-6);
  EXPECT_EQ(decoded->hits[1].title, "Title B");
}

TEST(SearchWorkerTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage = {'h', 'i'};
  EXPECT_FALSE(DecodeSearchResults(garbage).ok());
}

// ---------- full system -----------------------------------------------------------------

HotBotOptions SmallHotBot() {
  HotBotOptions options = DefaultHotBotOptions();
  options.logic.shard_count = 4;
  options.corpus.doc_count = 4000;
  options.topology.worker_pool_nodes = 6;
  return options;
}

TEST(HotBotSystemTest, QueryReturnsResultsFromAllPartitions) {
  HotBotService service(SmallHotBot());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  client->SendRequest(service.MakeQuery("user1", VocabularyWord(0)));
  service.sim()->RunFor(Seconds(20));

  ASSERT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
}

TEST(HotBotSystemTest, RepeatQueryHitsSearchCache) {
  HotBotService service(SmallHotBot());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  client->SendRequest(service.MakeQuery("u", VocabularyWord(1)));
  service.sim()->RunFor(Seconds(20));
  client->SendRequest(service.MakeQuery("u", VocabularyWord(1)));
  service.sim()->RunFor(Seconds(10));
  EXPECT_EQ(client->completed(), 2);
  // Second answer comes fast from the integrated result cache.
  EXPECT_LT(client->latency_stats().min(), 0.2);
}

TEST(HotBotSystemTest, LosingAShardShrinksTheDatabaseGracefully) {
  // "with 26 nodes the loss of one machine results in the database dropping from
  // 54M to about 51M documents" — partial failure shrinks, not breaks (§3.2).
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotOptions options = SmallHotBot();
  options.logic.cache_searches = false;  // Fresh scatter per query.
  options.sns.task_retries = 0;          // Don't wait for a shard respawn.
  options.sns.task_timeout = Seconds(2);
  HotBotService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  client->SendRequest(service.MakeQuery("u", VocabularyWord(0)));
  service.sim()->RunFor(Seconds(20));
  ASSERT_EQ(client->completed(), 1);

  // Kill shard 2's worker; immediately query again (before any respawn finishes).
  auto victims = service.system()->live_workers(SearchShardType(2));
  ASSERT_FALSE(victims.empty());
  int64_t full_docs = service.TotalDocuments();
  int64_t lost_docs = service.shards()[2]->doc_count();
  service.system()->cluster()->Crash(victims[0]->pid());

  client->SendRequest(service.MakeQuery("u", VocabularyWord(0) + " degraded"));
  service.sim()->RunFor(Seconds(30));
  EXPECT_EQ(client->completed(), 2);
  // The answer was flagged approximate (a partition was missing).
  auto sources = client->responses_by_source();
  EXPECT_GE(sources["approximate"], 1);
  EXPECT_GT(lost_docs, 0);
  EXPECT_LT(lost_docs, full_docs);
}

TEST(HotBotSystemTest, IncrementalDeliveryServesLaterPagesFromCache) {
  // Table 1: "integrated cache of recent searches, for incremental delivery" —
  // page 2 of a query must come from the cached result set without re-querying
  // the partitions.
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotService service(SmallHotBot());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  std::string query = VocabularyWord(0);
  client->SendRequest(service.MakeQuery("pager", query));
  service.sim()->RunFor(Seconds(20));
  ASSERT_EQ(client->completed(), 1);

  int64_t shard_tasks_after_page1 = 0;
  for (WorkerProcess* worker : service.system()->live_workers()) {
    shard_tasks_after_page1 += worker->completed_tasks();
  }

  TraceRecord page2 = service.MakeQuery("pager", query);
  page2.params["page"] = "2";
  int64_t bytes_before = client->bytes_received();
  client->SendRequest(page2);
  service.sim()->RunFor(Seconds(10));
  ASSERT_EQ(client->completed(), 2);

  // No shard did any new work for page 2.
  int64_t shard_tasks_after_page2 = 0;
  for (WorkerProcess* worker : service.system()->live_workers()) {
    shard_tasks_after_page2 += worker->completed_tasks();
  }
  EXPECT_EQ(shard_tasks_after_page2, shard_tasks_after_page1);
  // And page 2 is a different (possibly shorter) slice, served fast.
  EXPECT_GT(client->bytes_received(), bytes_before);
  EXPECT_LT(client->latency_stats().min(), 0.2);
}

TEST(HotBotSystemTest, PageBeyondResultsIsEmptyButValid) {
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotService service(SmallHotBot());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  TraceRecord far_page = service.MakeQuery("pager", VocabularyWord(1));
  far_page.params["page"] = "99";
  client->SendRequest(far_page);
  service.sim()->RunFor(Seconds(20));
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
}

TEST(HotBotSystemTest, PalmBrowserGetsSpoonFedPresentation) {
  // §3.2: presentation is customized per browser type. A PalmPilot user's profile
  // switches the result page to the line-oriented thin-client rendering.
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotOptions options = SmallHotBot();
  HotBotService service(options);
  UserProfile palm_user("pilot");
  palm_user.Set("browser", "palm");
  palm_user.Set("palm_cols", "24");
  service.system()->SeedProfile(palm_user);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  client->SendRequest(service.MakeQuery("pilot", VocabularyWord(0)));
  service.sim()->RunFor(Seconds(20));
  ASSERT_EQ(client->completed(), 1);
  // The bytes delivered are SPOON text: no tabs wider than 24 columns per line.
  // (We can't read the response body from the client stats; assert indirectly via
  // a fresh query through the logic below.)
  HotBotLogicConfig logic_config;
  HotBotLogic::ParsedResultPage full;
  full.partitions_reached = 1;
  full.partitions_total = 1;
  full.hits = {{1, 2.0, "a very long document title that must wrap"}};
  auto bytes = HotBotLogic::RenderResultPage(full.hits, 1, 1, 10);
  std::string spoon = SpoonFeed(std::string(bytes.begin(), bytes.end()), 24, 12);
  for (const std::string& line : StrSplit(spoon, '\n')) {
    for (const std::string& page_line : StrSplit(line, '\f')) {
      EXPECT_LE(page_line.size(), 24u);
    }
  }
}

TEST(HotBotLogicTest, ResultPageRoundTripsThroughParse) {
  std::vector<SearchHit> hits = {{1, 9.0, "alpha"}, {2, 5.5, "beta"}};
  auto bytes = HotBotLogic::RenderResultPage(hits, 3, 4, 12345);
  auto parsed = HotBotLogic::ParseResultPage(bytes);
  EXPECT_EQ(parsed.result_count, 2);
  EXPECT_EQ(parsed.partitions_reached, 3);
  EXPECT_EQ(parsed.partitions_total, 4);
  EXPECT_EQ(parsed.docs_searched, 12345);
  ASSERT_EQ(parsed.hits.size(), 2u);
  EXPECT_EQ(parsed.hits[1].title, "beta");
  EXPECT_NEAR(parsed.hits[0].score, 9.0, 1e-6);
}

TEST(HotBotSystemTest, ClusterMoveHalfAtATimeNeverGoesDown) {
  // The paper's anecdote: "during February 1997, HotBot was physically moved (from
  // Berkeley to San Jose) without ever being down, by moving half of the cluster at
  // a time... Although various parts of the database were unavailable at different
  // times during the move, the overall service was still up and useful."
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotOptions options = SmallHotBot();
  options.logic.cache_searches = false;
  options.sns.task_timeout = Seconds(2);
  options.sns.task_retries = 1;
  HotBotService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  // Steady query stream throughout the move.
  Rng rng(0x30E);
  auto* svc = &service;
  client->StartConstantRate(4, [&rng, svc] {
    std::string query = VocabularyWord(rng.Zipf(200, 0.9));
    return svc->MakeQuery("mover", query);
  });
  service.sim()->RunFor(Seconds(10));

  // Phase 1: power off the first half of the worker pool (shards respawn onto the
  // surviving nodes via the manager's spawn path).
  std::vector<NodeId> pool = service.system()->worker_pool();
  size_t half = pool.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    service.system()->cluster()->CrashNode(pool[i]);
  }
  service.sim()->RunFor(Seconds(40));

  // Phase 2: first half comes back; second half goes down.
  for (size_t i = 0; i < half; ++i) {
    service.system()->cluster()->RestartNode(pool[i]);
  }
  for (size_t i = half; i < pool.size(); ++i) {
    service.system()->cluster()->CrashNode(pool[i]);
  }
  service.sim()->RunFor(Seconds(40));

  // Move complete: everything back.
  for (size_t i = half; i < pool.size(); ++i) {
    service.system()->cluster()->RestartNode(pool[i]);
  }
  service.sim()->RunFor(Seconds(30));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  // The service was "still up and useful" the whole time: answers kept flowing
  // (some approximate), and few users were affected.
  int64_t answered = client->completed();
  int64_t asked = client->sent();
  EXPECT_GT(answered, asked * 9 / 10);
  EXPECT_EQ(client->errors(), 0);
  // And the full database is searchable again after the move.
  for (int shard = 0; shard < options.logic.shard_count; ++shard) {
    EXPECT_FALSE(service.system()->live_workers(SearchShardType(shard)).empty())
        << "shard " << shard << " missing after the move";
  }
}

TEST(HotBotSystemTest, CrashedShardIsRespawnedAndServiceHeals) {
  Logger::Get().set_min_level(LogLevel::kNone);
  HotBotOptions options = SmallHotBot();
  options.logic.cache_searches = false;
  HotBotService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  auto victims = service.system()->live_workers(SearchShardType(1));
  ASSERT_FALSE(victims.empty());
  service.system()->cluster()->Crash(victims[0]->pid());

  // The FE's spawn request (or retry path) brings the shard back; a later query
  // sees the full database again.
  client->SendRequest(service.MakeQuery("u", VocabularyWord(2)));
  service.sim()->RunFor(Seconds(40));
  EXPECT_EQ(client->completed(), 1);
  EXPECT_FALSE(service.system()->live_workers(SearchShardType(1)).empty());

  client->SendRequest(service.MakeQuery("u", VocabularyWord(2) + " after"));
  service.sim()->RunFor(Seconds(20));
  auto sources = client->responses_by_source();
  EXPECT_GE(sources["distilled"], 1);  // Full-coverage answer after healing.
}

}  // namespace
}  // namespace sns

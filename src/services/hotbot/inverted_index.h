// Inverted-index substrate for the HotBot search engine (paper §3.2).
//
// HotBot "performs millions of queries per day against a database of over 50
// million web pages", statically partitioned across worker nodes: "the database
// partitioning distributes documents randomly and it is acceptable to lose part of
// the database temporarily". This module provides a synthetic corpus generator, a
// real in-memory inverted index with TF scoring, and random sharding.

#ifndef SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_
#define SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace sns {

struct SearchDocument {
  int64_t id = 0;
  std::string title;
  std::vector<std::string> terms;
};

struct SearchHit {
  int64_t doc_id = 0;
  double score = 0;
  std::string title;
};

class InvertedIndexShard {
 public:
  explicit InvertedIndexShard(int shard_id) : shard_id_(shard_id) {}

  void AddDocument(const SearchDocument& doc);

  // Conjunctive (AND) query with TF-sum ranking; returns up to `k` hits, highest
  // score first (ties by ascending doc id for determinism).
  std::vector<SearchHit> Search(const std::vector<std::string>& terms, size_t k) const;

  // Total postings that a query over `terms` must scan (drives simulated cost).
  int64_t CandidatePostings(const std::vector<std::string>& terms) const;

  int shard_id() const { return shard_id_; }
  int64_t doc_count() const { return doc_count_; }
  int64_t term_count() const { return static_cast<int64_t>(postings_.size()); }
  int64_t posting_count() const { return posting_count_; }

 private:
  struct Posting {
    int64_t doc_id;
    int32_t tf;
  };

  int shard_id_;
  int64_t doc_count_ = 0;
  int64_t posting_count_ = 0;
  std::map<std::string, std::vector<Posting>> postings_;  // Sorted by doc id.
  std::map<int64_t, std::string> titles_;
};

using ShardPtr = std::shared_ptr<const InvertedIndexShard>;

struct CorpusConfig {
  uint64_t seed = 0x407B07;
  int64_t doc_count = 20000;
};

// Builds `shard_count` shards with documents distributed randomly (as HotBot did).
std::vector<ShardPtr> BuildShardedCorpus(const CorpusConfig& config, int shard_count);

// Draws a query of `terms` Zipf-popular vocabulary words.
std::vector<std::string> SampleQueryTerms(Rng* rng, int terms);

// The vocabulary word with the given rank (rank 0 = most popular).
std::string VocabularyWord(int64_t rank);

}  // namespace sns

#endif  // SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_

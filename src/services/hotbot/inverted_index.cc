#include "src/services/hotbot/inverted_index.h"

#include <algorithm>
#include <unordered_map>

#include "src/util/strings.h"

namespace sns {
namespace {

// Corpus vocabulary: word popularity is Zipf over kVocabulary ranks, and each
// document carries a uniform number of terms in [kMinTerms, kMaxTerms].
constexpr int64_t kVocabulary = 5000;
constexpr double kTermZipfSkew = 1.05;
constexpr int kMinTerms = 30;
constexpr int kMaxTerms = 200;

}  // namespace

void InvertedIndexShard::AddDocument(const SearchDocument& doc) {
  ++doc_count_;
  titles_[doc.id] = doc.title;
  std::unordered_map<std::string, int32_t> tf;
  for (const std::string& term : doc.terms) {
    ++tf[term];
  }
  for (const auto& [term, count] : tf) {
    postings_[term].push_back(Posting{doc.id, count});
    ++posting_count_;
  }
  // Postings stay sorted because documents are added in increasing id order within
  // a shard; enforce anyway for arbitrary insertion orders.
  for (const auto& [term, count] : tf) {
    auto& list = postings_[term];
    if (list.size() >= 2 && list[list.size() - 2].doc_id > list.back().doc_id) {
      std::sort(list.begin(), list.end(),
                [](const Posting& a, const Posting& b) { return a.doc_id < b.doc_id; });
    }
  }
}

std::vector<SearchHit> InvertedIndexShard::Search(const std::vector<std::string>& terms,
                                                  size_t k) const {
  if (terms.empty()) {
    return {};
  }
  // Gather posting lists; an absent term makes the conjunction empty.
  std::vector<const std::vector<Posting>*> lists;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) {
      return {};
    }
    lists.push_back(&it->second);
  }
  // Intersect starting from the rarest list.
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<SearchHit> hits;
  for (const Posting& seed_posting : *lists[0]) {
    double score = seed_posting.tf;
    bool all = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      const auto& list = *lists[i];
      auto it = std::lower_bound(
          list.begin(), list.end(), seed_posting.doc_id,
          [](const Posting& p, int64_t id) { return p.doc_id < id; });
      if (it == list.end() || it->doc_id != seed_posting.doc_id) {
        all = false;
        break;
      }
      score += it->tf;
    }
    if (all) {
      auto title = titles_.find(seed_posting.doc_id);
      hits.push_back(SearchHit{seed_posting.doc_id, score,
                               title != titles_.end() ? title->second : ""});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) {
    hits.resize(k);
  }
  return hits;
}

int64_t InvertedIndexShard::CandidatePostings(const std::vector<std::string>& terms) const {
  int64_t total = 0;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it != postings_.end()) {
      total += static_cast<int64_t>(it->second.size());
    }
  }
  return total;
}

std::string VocabularyWord(int64_t rank) {
  return StrFormat("kw%lld", static_cast<long long>(rank));
}

std::vector<ShardPtr> BuildShardedCorpus(const CorpusConfig& config, int shard_count) {
  Rng rng(config.seed);
  std::vector<std::shared_ptr<InvertedIndexShard>> shards;
  shards.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards.push_back(std::make_shared<InvertedIndexShard>(i));
  }
  for (int64_t id = 0; id < config.doc_count; ++id) {
    SearchDocument doc;
    doc.id = id;
    doc.title = StrFormat("Document %lld (%s %s)", static_cast<long long>(id),
                          VocabularyWord(rng.Zipf(kVocabulary, kTermZipfSkew)).c_str(),
                          VocabularyWord(rng.Zipf(kVocabulary, kTermZipfSkew)).c_str());
    int64_t terms = rng.UniformInt(kMinTerms, kMaxTerms);
    doc.terms.reserve(static_cast<size_t>(terms));
    for (int64_t t = 0; t < terms; ++t) {
      doc.terms.push_back(VocabularyWord(rng.Zipf(kVocabulary, kTermZipfSkew)));
    }
    // Random distribution of documents to shards (§3.2).
    auto shard = static_cast<size_t>(rng.UniformInt(0, shard_count - 1));
    shards[shard]->AddDocument(doc);
  }
  std::vector<ShardPtr> out;
  out.reserve(shards.size());
  for (auto& shard : shards) {
    out.push_back(std::move(shard));
  }
  return out;
}

std::vector<std::string> SampleQueryTerms(Rng* rng, int terms) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(terms));
  for (int i = 0; i < terms; ++i) {
    out.push_back(VocabularyWord(rng->Zipf(kVocabulary, kTermZipfSkew)));
  }
  return out;
}

}  // namespace sns

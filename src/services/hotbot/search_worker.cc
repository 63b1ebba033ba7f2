#include "src/services/hotbot/search_worker.h"

#include <cstdlib>

#include "src/util/strings.h"

namespace sns {
namespace {

// Simulated CPU per query: a fixed part plus a part per thousand candidate postings.
constexpr SimDuration kFixedCost = Milliseconds(2);
constexpr SimDuration kCostPerThousandPostings = Milliseconds(3);

}  // namespace

std::string SearchShardType(int shard_id) { return StrFormat("search-shard-%d", shard_id); }

TaccResult SearchShardWorker::Process(const TaccRequest& request) {
  std::string query = request.ArgOr(kArgQuery, "");
  if (query.empty()) {
    return TaccResult::Fail(InvalidArgumentError("search: empty query"));
  }
  auto k = static_cast<size_t>(request.ArgIntOr(kArgTopK, 10));
  std::vector<std::string> terms;
  for (const std::string& term : StrSplit(query, ' ')) {
    if (!term.empty()) {
      terms.push_back(term);
    }
  }
  std::vector<SearchHit> hits = shard_->Search(terms, k);
  return TaccResult::Ok(Content::Make(request.url, MimeType::kOther,
                                      EncodeSearchResults(shard_->shard_id(),
                                                          shard_->doc_count(), hits)));
}

SimDuration SearchShardWorker::EstimateCost(const TaccRequest& request) const {
  std::string query = request.ArgOr(kArgQuery, "");
  std::vector<std::string> terms;
  for (const std::string& term : StrSplit(query, ' ')) {
    if (!term.empty()) {
      terms.push_back(term);
    }
  }
  double thousands = static_cast<double>(shard_->CandidatePostings(terms)) / 1000.0;
  return kFixedCost + static_cast<SimDuration>(
                          static_cast<double>(kCostPerThousandPostings) * thousands);
}

std::vector<uint8_t> EncodeSearchResults(int shard_id, int64_t doc_count,
                                         const std::vector<SearchHit>& hits) {
  std::string out = StrFormat("shard %d docs %lld\n", shard_id,
                              static_cast<long long>(doc_count));
  for (const SearchHit& hit : hits) {
    out += StrFormat("%lld\t%.3f\t%s\n", static_cast<long long>(hit.doc_id), hit.score,
                     hit.title.c_str());
  }
  return std::vector<uint8_t>(out.begin(), out.end());
}

Result<DecodedSearchResults> DecodeSearchResults(const std::vector<uint8_t>& bytes) {
  DecodedSearchResults out;
  std::string text(bytes.begin(), bytes.end());
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (lines.empty()) {
    return CorruptionError("empty search results");
  }
  long long docs = 0;
  if (std::sscanf(lines[0].c_str(), "shard %d docs %lld", &out.shard_id, &docs) != 2) {
    return CorruptionError("bad search result header");
  }
  out.doc_count = docs;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      continue;
    }
    std::vector<std::string> fields = StrSplit(lines[i], '\t');
    if (fields.size() < 3) {
      return CorruptionError("bad search result line");
    }
    SearchHit hit;
    hit.doc_id = std::strtoll(fields[0].c_str(), nullptr, 10);
    hit.score = std::strtod(fields[1].c_str(), nullptr);
    hit.title = fields[2];
    out.hits.push_back(std::move(hit));
  }
  return out;
}

void RegisterSearchShards(WorkerRegistry* registry, const std::vector<ShardPtr>& shards) {
  for (const ShardPtr& shard : shards) {
    registry->Register(SearchShardType(shard->shard_id()),
                       [shard] { return std::make_unique<SearchShardWorker>(shard); });
  }
}

}  // namespace sns

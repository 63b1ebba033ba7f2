// Search-shard workers: HotBot's non-interchangeable workers (paper §3.2, Table 1).
//
// "HotBot workers statically partition the search-engine database... each worker
// handles a subset of the database proportional to its CPU power, and every query
// goes to all workers in parallel." Each shard is its own worker *type*
// ("search-shard-N"), so the SNS manager never substitutes one partition for
// another; a crashed shard can be respawned anywhere because the (read-only) index
// is shared, modeling HotBot's RAID + fast-restart regime.

#ifndef SRC_SERVICES_HOTBOT_SEARCH_WORKER_H_
#define SRC_SERVICES_HOTBOT_SEARCH_WORKER_H_

#include <string>
#include <vector>

#include "src/services/hotbot/inverted_index.h"
#include "src/tacc/registry.h"
#include "src/tacc/worker.h"

namespace sns {

inline constexpr char kArgQuery[] = "query";
inline constexpr char kArgTopK[] = "k";

std::string SearchShardType(int shard_id);

class SearchShardWorker : public TaccWorker {
 public:
  explicit SearchShardWorker(ShardPtr shard) : shard_(std::move(shard)) {}

  std::string type() const override { return SearchShardType(shard_->shard_id()); }
  bool interchangeable() const override { return false; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;

 private:
  ShardPtr shard_;
};

// Wire format for shard results: one "doc_id<TAB>score<TAB>title" line per hit,
// first line "shard <id> docs <n>".
std::vector<uint8_t> EncodeSearchResults(int shard_id, int64_t doc_count,
                                         const std::vector<SearchHit>& hits);
struct DecodedSearchResults {
  int shard_id = -1;
  int64_t doc_count = 0;
  std::vector<SearchHit> hits;
};
Result<DecodedSearchResults> DecodeSearchResults(const std::vector<uint8_t>& bytes);

// Registers factories for all shards; each factory shares the immutable shard.
void RegisterSearchShards(WorkerRegistry* registry, const std::vector<ShardPtr>& shards);

}  // namespace sns

#endif  // SRC_SERVICES_HOTBOT_SEARCH_WORKER_H_

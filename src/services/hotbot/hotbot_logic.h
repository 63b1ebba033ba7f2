// HotBot's front-end logic: parallel scatter/gather over statically partitioned
// search shards (paper §3.2).
//
// "Every query goes to all workers in parallel." Shards that fail or time out
// simply shrink the searched database for that query — the paper's graceful
// degradation ("with 26 nodes the loss of one machine results in the database
// dropping from 54M to about 51M documents"). Recent searches are cached
// ("integrated cache of recent searches, for incremental delivery", Table 1).

#ifndef SRC_SERVICES_HOTBOT_HOTBOT_LOGIC_H_
#define SRC_SERVICES_HOTBOT_HOTBOT_LOGIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/services/hotbot/search_worker.h"
#include "src/sns/front_end.h"

namespace sns {

struct HotBotLogicConfig {
  int shard_count = 8;
  bool cache_searches = true;
};

class HotBotLogic : public FrontEndLogic {
 public:
  explicit HotBotLogic(const HotBotLogicConfig& config) : config_(config) {}

  void HandleRequest(RequestContext* ctx) override;

  // The recent-search cache key: per query (and depth), NOT per page — all pages of
  // a query share one cached result set (incremental delivery, Table 1).
  static std::string SearchCacheKey(const std::string& query, int k);

  // Renders the final result page (plain text; "dynamic HTML" stand-in). The header
  // carries reachable-partition and document counts so clients can see degradation:
  //   "results <n> partitions <reached>/<total> docs <searched>".
  static std::vector<uint8_t> RenderResultPage(const std::vector<SearchHit>& hits,
                                               int reached, int total, int64_t docs_searched);
  struct ParsedResultPage {
    int result_count = 0;
    int partitions_reached = 0;
    int partitions_total = 0;
    int64_t docs_searched = 0;
    std::vector<SearchHit> hits;
  };
  static ParsedResultPage ParseResultPage(const std::vector<uint8_t>& bytes);

 private:
  void RunQuery(RequestContext* ctx, const std::string& query, int page);
  // Slices page `page` (1-based, a profile's results_per_page hits) out of a full cached result
  // set and responds with it.
  void RespondPage(RequestContext* ctx, const ParsedResultPage& full, int page,
                   bool cache_hit);

  HotBotLogicConfig config_;
};

}  // namespace sns

#endif  // SRC_SERVICES_HOTBOT_HOTBOT_LOGIC_H_

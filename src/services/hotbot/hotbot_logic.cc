#include "src/services/hotbot/hotbot_logic.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/services/extras/palm_transform.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// Page size when the user's profile sets none.
constexpr int kResultsPerPage = 10;
// How many hits a search gathers and caches, regardless of page size — this is
// what makes "incremental delivery" (Table 1) possible: page 2, 3, ... of the
// same query are sliced from the cached result set without re-querying shards.
constexpr int kCachedResultDepth = 50;

}  // namespace

std::string HotBotLogic::SearchCacheKey(const std::string& query, int k) {
  return StrFormat("search|%s|k=%d", query.c_str(), k);
}

std::vector<uint8_t> HotBotLogic::RenderResultPage(const std::vector<SearchHit>& hits,
                                                   int reached, int total,
                                                   int64_t docs_searched) {
  std::string page = StrFormat("results %zu partitions %d/%d docs %lld\n", hits.size(),
                               reached, total, static_cast<long long>(docs_searched));
  for (const SearchHit& hit : hits) {
    page += StrFormat("%lld\t%.3f\t%s\n", static_cast<long long>(hit.doc_id), hit.score,
                      hit.title.c_str());
  }
  return std::vector<uint8_t>(page.begin(), page.end());
}

HotBotLogic::ParsedResultPage HotBotLogic::ParseResultPage(const std::vector<uint8_t>& bytes) {
  ParsedResultPage out;
  std::string text(bytes.begin(), bytes.end());
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (lines.empty()) {
    return out;
  }
  long long docs = 0;
  std::sscanf(lines[0].c_str(), "results %d partitions %d/%d docs %lld", &out.result_count,
              &out.partitions_reached, &out.partitions_total, &docs);
  out.docs_searched = docs;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      continue;
    }
    std::vector<std::string> fields = StrSplit(lines[i], '\t');
    if (fields.size() < 3) {
      continue;
    }
    SearchHit hit;
    hit.doc_id = std::strtoll(fields[0].c_str(), nullptr, 10);
    hit.score = std::strtod(fields[1].c_str(), nullptr);
    hit.title = fields[2];
    out.hits.push_back(std::move(hit));
  }
  return out;
}

void HotBotLogic::HandleRequest(RequestContext* ctx) {
  ctx->GetProfile([this](RequestContext* c, bool /*found*/, const UserProfile& profile) {
    c->SetProfile(profile);
    auto query_it = c->request().params.find(kArgQuery);
    std::string query = query_it != c->request().params.end() ? query_it->second : "";
    if (query.empty()) {
      c->Respond(InvalidArgumentError("missing query"), nullptr, ResponseSource::kError,
                 false);
      return;
    }
    auto page_it = c->request().params.find("page");
    int page = page_it != c->request().params.end()
                   ? std::max(1, std::atoi(page_it->second.c_str()))
                   : 1;
    if (!config_.cache_searches) {
      RunQuery(c, query, page);
      return;
    }
    // Incremental delivery (Table 1): all pages of a query share one cached result
    // set; only a full miss re-queries the partitions.
    c->CacheGet(SearchCacheKey(query, kCachedResultDepth),
                [this, query, page](RequestContext* c2, bool hit, ContentPtr content) {
                  if (hit && content != nullptr) {
                    RespondPage(c2, ParseResultPage(content->bytes), page,
                                /*cache_hit=*/true);
                    return;
                  }
                  RunQuery(c2, query, page);
                });
  });
}

void HotBotLogic::RespondPage(RequestContext* ctx, const ParsedResultPage& full, int page,
                              bool cache_hit) {
  int k = static_cast<int>(
      ctx->profile().GetIntOr("results_per_page", kResultsPerPage));
  auto begin = static_cast<size_t>((page - 1) * k);
  std::vector<SearchHit> slice;
  for (size_t i = begin; i < full.hits.size() && slice.size() < static_cast<size_t>(k); ++i) {
    slice.push_back(full.hits[i]);
  }
  std::vector<uint8_t> body = RenderResultPage(slice, full.partitions_reached,
                                               full.partitions_total, full.docs_searched);
  MimeType mime = MimeType::kHtml;
  // "The HTTP front ends ... handle the presentation and customization of results
  // based on user preferences and browser type" (§3.2): thin clients get the
  // paginated SPOON rendering instead of HTML.
  if (ctx->profile().GetOr("browser", "html") == "palm") {
    std::string html(body.begin(), body.end());
    std::string spoon =
        SpoonFeed(html, static_cast<int>(ctx->profile().GetIntOr("palm_cols", 40)),
                  static_cast<int>(ctx->profile().GetIntOr("palm_rows", 12)));
    body.assign(spoon.begin(), spoon.end());
    mime = MimeType::kOther;
  }
  ContentPtr rendered = Content::Make(ctx->request().url, mime, std::move(body));
  bool partial = full.partitions_reached < full.partitions_total;
  ctx->Respond(Status::Ok(), rendered,
               partial ? ResponseSource::kCacheApproximate : ResponseSource::kDistilled,
               cache_hit);
}

void HotBotLogic::RunQuery(RequestContext* ctx, const std::string& query, int page) {
  // Scatter to every partition in parallel; gather with graceful degradation.
  struct GatherState {
    int expected = 0;
    int received = 0;
    int reached = 0;
    int64_t docs = 0;
    std::vector<SearchHit> hits;
  };
  auto state = std::make_shared<GatherState>();
  state->expected = config_.shard_count;

  auto finalize = [this, state, query, page](RequestContext* c) {
    std::sort(state->hits.begin(), state->hits.end(),
              [](const SearchHit& a, const SearchHit& b) {
                if (a.score != b.score) {
                  return a.score > b.score;
                }
                return a.doc_id < b.doc_id;
              });
    if (state->hits.size() > static_cast<size_t>(kCachedResultDepth)) {
      state->hits.resize(static_cast<size_t>(kCachedResultDepth));
    }
    ParsedResultPage full;
    full.partitions_reached = state->reached;
    full.partitions_total = state->expected;
    full.docs_searched = state->docs;
    full.hits = std::move(state->hits);
    if (config_.cache_searches) {
      // Cache the FULL result set (depth hits) so later pages of this query are
      // incremental deliveries from the cache.
      c->CachePut(SearchCacheKey(query, kCachedResultDepth),
                  Content::Make(c->request().url, MimeType::kHtml,
                                RenderResultPage(full.hits, full.partitions_reached,
                                                 full.partitions_total, full.docs_searched)));
    }
    RespondPage(c, full, page, /*cache_hit=*/false);
  };

  for (int shard = 0; shard < config_.shard_count; ++shard) {
    std::map<std::string, std::string> args;
    args[kArgQuery] = query;
    args[kArgTopK] = StrFormat("%d", kCachedResultDepth);
    for (const auto& [key, value] : ctx->request().params) {
      if (key.rfind("__", 0) == 0) {
        args[key] = value;  // Fault-injection markers.
      }
    }
    ctx->CallWorker(SearchShardType(shard), std::move(args), {},
                    [state, finalize](RequestContext* c, Status status, ContentPtr content) {
                      ++state->received;
                      if (status.ok() && content != nullptr) {
                        auto decoded = DecodeSearchResults(content->bytes);
                        if (decoded.ok()) {
                          ++state->reached;
                          state->docs += decoded->doc_count;
                          for (const SearchHit& hit : decoded->hits) {
                            state->hits.push_back(hit);
                          }
                        }
                      }
                      if (state->received == state->expected) {
                        finalize(c);
                      }
                    });
  }
}

}  // namespace sns

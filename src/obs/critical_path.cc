#include "src/obs/critical_path.h"

#include <algorithm>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace sns {

namespace {

// Sub-microsecond stage slices up to the fetch-timeout scale, 10 buckets/decade.
constexpr double kStageHistLo = 1e-6;
constexpr double kStageHistHi = 1e3;
constexpr size_t kStageHistBpd = 10;

// Guards the tree walk against malformed parentage (a span cycle would otherwise
// recurse forever; real traces are a few hops deep).
constexpr int kMaxDepth = 128;

struct Walk {
  const std::unordered_map<uint64_t, std::vector<const SpanRecord*>>* children;
  std::map<std::string, SimDuration, std::less<>>* stages;
};

// The stage's accumulator, created at zero on first use.
SimDuration& StageTotal(const Walk& walk, std::string_view stage) {
  auto it = walk.stages->find(stage);
  if (it == walk.stages->end()) {
    it = walk.stages->emplace(stage, 0).first;
  }
  return it->second;
}

void Attribute(const Walk& walk, const SpanRecord& span, SimTime lo, SimTime hi, int depth) {
  const std::string_view self_stage = CriticalStageFor(span.operation);
  SimTime cursor = lo;
  auto kids = walk.children->find(span.span_id);
  if (kids != walk.children->end() && depth < kMaxDepth) {
    for (const SpanRecord* child : kids->second) {
      SimTime child_lo = std::clamp(child->start, cursor, hi);
      SimTime child_hi = std::clamp(child->end, child_lo, hi);
      if (child_lo > cursor) {
        StageTotal(walk, self_stage) += child_lo - cursor;
      }
      Attribute(walk, *child, child_lo, child_hi, depth + 1);
      cursor = std::max(cursor, child_hi);
    }
  }
  if (hi > cursor) {
    StageTotal(walk, self_stage) += hi - cursor;
  }
}

}  // namespace

std::string_view CriticalStageFor(std::string_view operation) {
  if (operation == "client.request") return "san_transit";
  if (operation == "fe.request") return "fe_processing";
  if (operation == "fe.queue_wait") return "fe_accept_queue_wait";
  // The FE-side facility spans cover [send .. reply]; their self time (outside
  // the server-side child span) is wire time.
  if (operation == "fe.task_attempt") return "san_transit";
  if (operation == "fe.cache_get" || operation == "fe.cache_put") return "san_transit";
  if (operation == "fe.profile_get") return "profile_lookup";
  if (operation == "fe.fetch") return "origin_fetch";
  if (operation == "fe.retry_backoff") return "retry_backoff_idle";
  if (operation == "fe.spawn_wait") return "manager_stub_lookup";
  if (operation == "manager.spawn_request") return "manager_stub_lookup";
  if (operation == "cache.get") return "cache_lookup";
  if (operation == "cache.put") return "cache_write";
  // A worker.task span with queue_wait/service children has ~zero self time; one
  // without them (expired/rejected before service) spent its window queued.
  if (operation == "worker.task" || operation == "worker.queue_wait") {
    return "worker_queue_wait";
  }
  if (operation == "worker.service") return "worker_service";
  return operation;
}

SimDuration CriticalPath::StageSum() const {
  SimDuration sum = 0;
  for (const auto& [stage, d] : stages) {
    sum += d;
  }
  return sum;
}

std::optional<CriticalPath> AnalyzeTrace(const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> pointers;
  pointers.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    pointers.push_back(&span);
  }
  return AnalyzeTrace(pointers);
}

std::optional<CriticalPath> AnalyzeTrace(const std::vector<const SpanRecord*>& spans) {
  if (spans.empty()) {
    return std::nullopt;
  }
  const SpanRecord* root = nullptr;
  for (const SpanRecord* span : spans) {
    if (span->parent_span_id != 0) {
      continue;
    }
    // Prefer the client's root; among several parentless spans take the earliest.
    if (root == nullptr ||
        (span->operation == "client.request" && root->operation != "client.request") ||
        (span->operation == root->operation && span->start < root->start)) {
      root = span;
    }
  }
  if (root == nullptr) {
    return std::nullopt;  // Request still in flight (or root evicted): skip.
  }
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord* span : spans) {
    if (span->parent_span_id != 0 && span != root) {
      children[span->parent_span_id].push_back(span);
    }
  }
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(), [](const SpanRecord* a, const SpanRecord* b) {
      if (a->start != b->start) return a->start < b->start;
      return a->span_id < b->span_id;
    });
  }
  CriticalPath path;
  path.trace_id = root->trace_id;
  path.total = root->end - root->start;
  path.root_outcome = root->outcome;
  Walk walk{&children, &path.stages};
  Attribute(walk, *root, root->start, root->end, 0);
  return path;
}

CriticalPathSummary::CriticalPathSummary()
    : total_hist_(kStageHistLo, kStageHistHi, kStageHistBpd) {}

CriticalPathSummary::StageStats* CriticalPathSummary::GetStage(const std::string& stage) {
  auto it = stages_.find(stage);
  if (it == stages_.end()) {
    it = stages_
             .emplace(stage,
                      StageStats{LogHistogram(kStageHistLo, kStageHistHi, kStageHistBpd)})
             .first;
  }
  return &it->second;
}

void CriticalPathSummary::Add(const CriticalPath& path) {
  ++requests_;
  if (path.total > 0) {
    total_hist_.Add(ToSeconds(path.total));
  }
  for (const auto& [stage, d] : path.stages) {
    if (d <= 0) {
      continue;
    }
    StageStats* stats = GetStage(stage);
    double seconds = ToSeconds(d);
    stats->hist.Add(seconds);
    stats->total_s += seconds;
    ++stats->count;
  }
}

CriticalPathSummary CriticalPathSummary::FromCollector(const TraceCollector& collector) {
  CriticalPathSummary summary;
  collector.ForEachTrace([&summary](uint64_t, const std::vector<const SpanRecord*>& spans) {
    auto path = AnalyzeTrace(spans);
    if (path.has_value()) {
      summary.Add(*path);
    }
  });
  return summary;
}

const LogHistogram* CriticalPathSummary::StageHistogram(const std::string& stage) const {
  auto it = stages_.find(stage);
  return it == stages_.end() ? nullptr : &it->second.hist;
}

std::string CriticalPathSummary::ToJson() const {
  double attributed_s = 0.0;
  for (const auto& [name, stats] : stages_) {
    attributed_s += stats.total_s;
  }
  std::string out = "{\"requests\":";
  AppendInt(&out, requests_);
  out += ",\"total\":{\"count\":";
  AppendInt(&out, total_hist_.TotalCount());
  out += ",\"mean_s\":";
  AppendDouble6g(&out, total_hist_.summary().mean());
  out += ",\"p50_s\":";
  AppendDouble6g(&out, total_hist_.Percentile(0.5));
  out += ",\"p99_s\":";
  AppendDouble6g(&out, total_hist_.Percentile(0.99));
  out += "},\"stages\":{";
  bool first = true;
  for (const auto& [name, stats] : stages_) {
    if (!first) out += ",";
    first = false;
    out += '"';
    AppendEscaped(&out, name);
    out += "\":{\"count\":";
    AppendInt(&out, stats.count);
    out += ",\"total_s\":";
    AppendDouble6g(&out, stats.total_s);
    out += ",\"share\":";
    AppendFixed(&out, attributed_s > 0 ? stats.total_s / attributed_s : 0.0, 4);
    out += ",\"p50_s\":";
    AppendDouble6g(&out, stats.hist.Percentile(0.5));
    out += ",\"p99_s\":";
    AppendDouble6g(&out, stats.hist.Percentile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string CriticalPathSummary::RenderTable() const {
  double attributed_s = 0.0;
  for (const auto& [name, stats] : stages_) {
    attributed_s += stats.total_s;
  }
  std::string out = StrFormat("critical path over %lld request(s):\n",
                              static_cast<long long>(requests_));
  out += StrFormat("  %-22s %10s %7s %12s %12s\n", "stage", "total_s", "share", "p50_ms",
                   "p99_ms");
  for (const auto& [name, stats] : stages_) {
    out += StrFormat("  %-22s %10.3f %6.1f%% %12.3f %12.3f\n", name.c_str(), stats.total_s,
                     attributed_s > 0 ? 100.0 * stats.total_s / attributed_s : 0.0,
                     1e3 * stats.hist.Percentile(0.5), 1e3 * stats.hist.Percentile(0.99));
  }
  out += StrFormat("  %-22s %10s %7s %12.3f %12.3f\n", "end_to_end", "", "",
                   1e3 * total_hist_.Percentile(0.5), 1e3 * total_hist_.Percentile(0.99));
  return out;
}

}  // namespace sns

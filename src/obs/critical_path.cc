#include "src/obs/critical_path.h"

#include <algorithm>
#include <bit>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
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

// Indices into kCriticalStages.
constexpr size_t kCacheLookup = 0;
constexpr size_t kCacheWrite = 1;
constexpr size_t kFeAcceptQueueWait = 2;
constexpr size_t kFeProcessing = 3;
constexpr size_t kManagerStubLookup = 4;
constexpr size_t kOriginFetch = 5;
constexpr size_t kProfileLookup = 6;
constexpr size_t kRetryBackoffIdle = 7;
constexpr size_t kSanTransit = 8;
constexpr size_t kWorkerQueueWait = 9;
constexpr size_t kWorkerService = 10;
static_assert(kCriticalStages[kWorkerService] == "worker_service");

// The table index of a stage name, or kCriticalStageCount for other names.
size_t StageNamed(std::string_view name) {
  auto it = std::lower_bound(kCriticalStages.begin(), kCriticalStages.end(), name);
  return it != kCriticalStages.end() && *it == name
             ? static_cast<size_t>(it - kCriticalStages.begin())
             : kCriticalStageCount;
}

// The table index of the stage charged for `operation`'s self time, or
// kCriticalStageCount for an operation that names its own stage. Dispatches on
// the length first: this runs for every span of every trace.
size_t StageIndexFor(std::string_view operation) {
  switch (operation.size()) {
    case 8:
      if (operation == "fe.fetch") return kOriginFetch;
      break;
    case 9:
      if (operation == "cache.get") return kCacheLookup;
      if (operation == "cache.put") return kCacheWrite;
      break;
    case 10:
      if (operation == "fe.request") return kFeProcessing;
      break;
    case 11:
      // A worker.task span with queue_wait/service children has ~zero self
      // time; one without them (expired/rejected before service) spent its
      // window queued.
      if (operation == "worker.task") return kWorkerQueueWait;
      break;
    case 12:
      // The FE-side facility spans cover [send .. reply]; their self time
      // (outside the server-side child span) is wire time.
      if (operation == "fe.cache_get" || operation == "fe.cache_put") return kSanTransit;
      break;
    case 13:
      if (operation == "fe.queue_wait") return kFeAcceptQueueWait;
      if (operation == "fe.spawn_wait") return kManagerStubLookup;
      break;
    case 14:
      if (operation == "client.request") return kSanTransit;
      if (operation == "fe.profile_get") return kProfileLookup;
      if (operation == "worker.service") return kWorkerService;
      break;
    case 15:
      if (operation == "fe.task_attempt") return kSanTransit;
      break;
    case 16:
      if (operation == "fe.retry_backoff") return kRetryBackoffIdle;
      break;
    case 17:
      if (operation == "worker.queue_wait") return kWorkerQueueWait;
      break;
    case 21:
      if (operation == "manager.spawn_request") return kManagerStubLookup;
      break;
    default:
      break;
  }
  return StageNamed(operation);
}

// Spans in (start, span_id) order: the order of siblings.
bool SpanBefore(const SpanRecord& a, const SpanRecord& b) {
  if (a.start != b.start) return a.start < b.start;
  return a.span_id < b.span_id;
}

// Whether `a` is the better root: the client's root span over any other, then
// the earliest.
bool RootBefore(const SpanRecord& a, const SpanRecord& b) {
  bool a_client = a.operation == "client.request";
  bool b_client = b.operation == "client.request";
  if (a_client != b_client) return a_client;
  return SpanBefore(a, b);
}

}  // namespace

std::string_view CriticalStageFor(std::string_view operation) {
  size_t index = StageIndexFor(operation);
  return index < kCriticalStageCount ? kCriticalStages[index] : operation;
}

SimDuration CriticalPath::StageSum() const {
  SimDuration sum = 0;
  for (const auto& [stage, d] : stages) {
    sum += d;
  }
  return sum;
}

bool TraceAnalyzer::Analyze(const std::vector<SpanRecord>& spans) {
  nodes_.clear();
  for (const SpanRecord& span : spans) {
    Add(&span);
  }
  return Run();
}

bool TraceAnalyzer::Analyze(const std::vector<const SpanRecord*>& spans) {
  nodes_.clear();
  for (const SpanRecord* span : spans) {
    Add(span);
  }
  return Run();
}

void TraceAnalyzer::Add(const SpanRecord* span) {
  nodes_.push_back({span, kNoSpan, kNoSpan, kNoSpan});
}

void TraceAnalyzer::Adopt(uint32_t parent, uint32_t child) {
  Node& node = nodes_[parent];
  const SpanRecord& span = *nodes_[child].span;
  // Siblings mostly arrive in start order: append unless the child sorts
  // before the last one.
  if (node.last_child == kNoSpan || SpanBefore(*nodes_[node.last_child].span, span)) {
    if (node.last_child == kNoSpan) {
      node.first_child = child;
    } else {
      nodes_[node.last_child].next_sibling = child;
    }
    node.last_child = child;
    return;
  }
  uint32_t* link = &node.first_child;
  while (SpanBefore(*nodes_[*link].span, span)) {
    link = &nodes_[*link].next_sibling;
  }
  nodes_[child].next_sibling = *link;
  *link = child;
}

bool TraceAnalyzer::Run() {
  root_ = nullptr;
  for (const Node& node : nodes_) {
    if (node.span->parent_span_id == 0 && (root_ == nullptr || RootBefore(*node.span, *root_))) {
      root_ = node.span;
    }
  }
  if (root_ == nullptr) {
    return false;  // Request still in flight (or root evicted): skip.
  }
  // Index the spans by id in an open-addressed table at most half full, then
  // link each span into its parent's child list. Spans whose parent is not in
  // the trace stay out of the tree; parentless spans are never children.
  const auto count = static_cast<uint32_t>(nodes_.size());
  const int bits = static_cast<int>(std::bit_width(2 * count - 1));
  const size_t mask = (size_t{1} << bits) - 1;
  auto slot_of = [bits](uint64_t span_id) {
    return static_cast<size_t>((span_id * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
  };
  by_id_.assign(mask + 1, kNoSpan);
  uint32_t root = kNoSpan;
  for (uint32_t i = 0; i < count; ++i) {
    size_t slot = slot_of(nodes_[i].span->span_id);
    while (by_id_[slot] != kNoSpan) {
      slot = (slot + 1) & mask;
    }
    by_id_[slot] = i;
    if (nodes_[i].span == root_) {
      root = i;
    }
  }
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t parent_id = nodes_[i].span->parent_span_id;
    if (parent_id == 0) {
      continue;
    }
    for (size_t slot = slot_of(parent_id); by_id_[slot] != kNoSpan; slot = (slot + 1) & mask) {
      if (nodes_[by_id_[slot]].span->span_id == parent_id) {
        Adopt(by_id_[slot], i);
        break;
      }
    }
  }
  total_ = root_->end - root_->start;
  stages_.fill(0);
  custom_.clear();
  Attribute(root, root_->start, root_->end, 0);
  return true;
}

void TraceAnalyzer::Attribute(uint32_t node, SimTime lo, SimTime hi, int depth) {
  const SpanRecord& span = *nodes_[node].span;
  const size_t self_stage = StageIndexFor(span.operation);
  SimTime cursor = lo;
  for (uint32_t child = depth < kMaxDepth ? nodes_[node].first_child : kNoSpan;
       child != kNoSpan; child = nodes_[child].next_sibling) {
    const SpanRecord& kid = *nodes_[child].span;
    SimTime child_lo = std::clamp(kid.start, cursor, hi);
    SimTime child_hi = std::clamp(kid.end, child_lo, hi);
    if (child_lo > cursor) {
      Charge(self_stage, span.operation, child_lo - cursor);
    }
    Attribute(child, child_lo, child_hi, depth + 1);
    cursor = std::max(cursor, child_hi);
  }
  if (hi > cursor) {
    Charge(self_stage, span.operation, hi - cursor);
  }
}

void TraceAnalyzer::Charge(size_t index, std::string_view operation, SimDuration d) {
  if (index < kCriticalStageCount) {
    stages_[index] += d;
    return;
  }
  for (auto& [stage, total] : custom_) {
    if (stage == operation) {
      total += d;
      return;
    }
  }
  custom_.emplace_back(operation, d);
}

std::string_view TraceAnalyzer::DominantStage() const {
  std::string_view dominant = CriticalStageFor(root_->operation);
  SimDuration most = 0;
  for (size_t i = 0; i < kCriticalStageCount; ++i) {
    if (stages_[i] > most) {
      most = stages_[i];
      dominant = kCriticalStages[i];
    }
  }
  for (const auto& [stage, d] : custom_) {
    if (d > most) {
      most = d;
      dominant = stage;
    }
  }
  return dominant;
}

namespace {

template <typename Spans>
std::optional<CriticalPath> Decompose(const Spans& spans) {
  TraceAnalyzer analyzer;
  if (!analyzer.Analyze(spans)) {
    return std::nullopt;
  }
  CriticalPath path;
  path.trace_id = analyzer.root().trace_id;
  path.total = analyzer.total();
  path.root_outcome = analyzer.root().outcome;
  for (size_t i = 0; i < kCriticalStageCount; ++i) {
    if (analyzer.stage(i) > 0) {
      path.stages.emplace(kCriticalStages[i], analyzer.stage(i));
    }
  }
  for (const auto& [stage, d] : analyzer.custom_stages()) {
    path.stages.emplace(stage, d);
  }
  return path;
}

}  // namespace

std::optional<CriticalPath> AnalyzeTrace(const std::vector<SpanRecord>& spans) {
  return Decompose(spans);
}

std::optional<CriticalPath> AnalyzeTrace(const std::vector<const SpanRecord*>& spans) {
  return Decompose(spans);
}

CriticalPathSummary::CriticalPathSummary()
    : total_hist_(kStageHistLo, kStageHistHi, kStageHistBpd),
      stages_(kCriticalStageCount,
              StageStats{LogHistogram(kStageHistLo, kStageHistHi, kStageHistBpd)}) {}

void CriticalPathSummary::AddStage(StageStats* stats, SimDuration d) {
  double seconds = ToSeconds(d);
  stats->hist.Add(seconds);
  stats->total_s += seconds;
  ++stats->count;
}

CriticalPathSummary::StageStats* CriticalPathSummary::CustomStage(std::string_view stage) {
  auto it = custom_stages_.find(stage);
  if (it == custom_stages_.end()) {
    it = custom_stages_
             .emplace(stage,
                      StageStats{LogHistogram(kStageHistLo, kStageHistHi, kStageHistBpd)})
             .first;
  }
  return &it->second;
}

void CriticalPathSummary::Add(const TraceAnalyzer& analyzer) {
  ++requests_;
  if (analyzer.total() > 0) {
    total_hist_.Add(ToSeconds(analyzer.total()));
  }
  for (size_t i = 0; i < kCriticalStageCount; ++i) {
    if (analyzer.stage(i) > 0) {
      AddStage(&stages_[i], analyzer.stage(i));
    }
  }
  for (const auto& [stage, d] : analyzer.custom_stages()) {
    AddStage(CustomStage(stage), d);
  }
}

CriticalPathSummary CriticalPathSummary::FromCollector(const TraceCollector& collector) {
  return collector.Drained().paths;
}

const LogHistogram* CriticalPathSummary::StageHistogram(std::string_view stage) const {
  size_t index = StageNamed(stage);
  if (index < kCriticalStageCount) {
    return stages_[index].count > 0 ? &stages_[index].hist : nullptr;
  }
  auto it = custom_stages_.find(stage);
  return it == custom_stages_.end() ? nullptr : &it->second.hist;
}

std::vector<std::pair<std::string_view, const CriticalPathSummary::StageStats*>>
CriticalPathSummary::SortedStages() const {
  std::vector<std::pair<std::string_view, const StageStats*>> sorted;
  for (size_t i = 0; i < kCriticalStageCount; ++i) {
    if (stages_[i].count > 0) {
      sorted.emplace_back(kCriticalStages[i], &stages_[i]);
    }
  }
  for (const auto& [name, stats] : custom_stages_) {
    sorted.emplace_back(name, &stats);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

std::string CriticalPathSummary::ToJson() const {
  auto stages = SortedStages();
  double attributed_s = 0.0;
  for (const auto& [name, stats] : stages) {
    attributed_s += stats->total_s;
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
  for (const auto& [name, stats] : stages) {
    if (!first) out += ",";
    first = false;
    out += '"';
    AppendEscaped(&out, name);
    out += "\":{\"count\":";
    AppendInt(&out, stats->count);
    out += ",\"total_s\":";
    AppendDouble6g(&out, stats->total_s);
    out += ",\"share\":";
    AppendFixed(&out, attributed_s > 0 ? stats->total_s / attributed_s : 0.0, 4);
    out += ",\"p50_s\":";
    AppendDouble6g(&out, stats->hist.Percentile(0.5));
    out += ",\"p99_s\":";
    AppendDouble6g(&out, stats->hist.Percentile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string CriticalPathSummary::RenderTable() const {
  auto stages = SortedStages();
  double attributed_s = 0.0;
  for (const auto& [name, stats] : stages) {
    attributed_s += stats->total_s;
  }
  std::string out = StrFormat("critical path over %lld request(s):\n",
                              static_cast<long long>(requests_));
  out += StrFormat("  %-22s %10s %7s %12s %12s\n", "stage", "total_s", "share", "p50_ms",
                   "p99_ms");
  for (const auto& [name, stats] : stages) {
    out += StrFormat("  %-22s %10.3f %6.1f%% %12.3f %12.3f\n", std::string(name).c_str(),
                     stats->total_s,
                     attributed_s > 0 ? 100.0 * stats->total_s / attributed_s : 0.0,
                     1e3 * stats->hist.Percentile(0.5), 1e3 * stats->hist.Percentile(0.99));
  }
  out += StrFormat("  %-22s %10s %7s %12.3f %12.3f\n", "end_to_end", "", "",
                   1e3 * total_hist_.Percentile(0.5), 1e3 * total_hist_.Percentile(0.99));
  return out;
}

}  // namespace sns

#include "src/obs/trace.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <tuple>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace sns {

namespace {

// The fixed text of a span object, in the order AppendJson writes it.
constexpr std::string_view kSpanId = "{\"span_id\":";
constexpr std::string_view kParentSpanId = ",\"parent_span_id\":";
constexpr std::string_view kComponent = ",\"component\":\"";
constexpr std::string_view kOperation = "\",\"operation\":\"";
constexpr std::string_view kNode = "\",\"node\":";
constexpr std::string_view kStart = ",\"start_ns\":";
constexpr std::string_view kEnd = ",\"end_ns\":";
constexpr std::string_view kOutcome = ",\"outcome\":\"";
constexpr std::string_view kSpanClose = "\"}";
constexpr size_t kSpanFixedLength = kSpanId.size() + kParentSpanId.size() + kComponent.size() +
                                    kOperation.size() + kNode.size() + kStart.size() +
                                    kEnd.size() + kOutcome.size() + kSpanClose.size();

// The fixed text of a trace object around its comma-separated spans.
constexpr std::string_view kTraceId = "{\"trace_id\":";
constexpr std::string_view kSpans = ",\"spans\":[";
constexpr std::string_view kTraceClose = "]}";

// The fixed text before the comma-separated exemplars of ToJson.
constexpr std::string_view kTracesOpen = "{\"traces\":[";

// The class of a trace without a root span.
constexpr std::string_view kNoRootOutcome = "no_root";
constexpr std::string_view kNoRootStage = "none";

bool SpanBefore(const SpanRecord* a, const SpanRecord* b) {
  if (a->start != b->start) return a->start < b->start;
  return a->span_id < b->span_id;
}

// Replaces *out with pointers to `spans`, ordered by (start, span_id).
void SortSpans(const std::vector<SpanRecord>& spans, std::vector<const SpanRecord*>* out) {
  out->clear();
  for (const SpanRecord& span : spans) {
    out->push_back(&span);
  }
  // span_id is unique, so the order is total and does not depend on the sort.
  std::sort(out->begin(), out->end(), SpanBefore);
}

void AppendTraceJson(std::string* out, uint64_t trace_id,
                     const std::vector<const SpanRecord*>& spans) {
  *out += kTraceId;
  AppendUint(out, trace_id);
  *out += kSpans;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) *out += ',';
    spans[i]->AppendJson(out);
  }
  *out += kTraceClose;
}

size_t TraceJsonLength(uint64_t trace_id, const std::vector<SpanRecord>& spans) {
  size_t length = kTraceId.size() + UintLength(trace_id) + kSpans.size() + kTraceClose.size();
  for (const SpanRecord& span : spans) {
    length += span.JsonLength();
  }
  return length + (spans.empty() ? 0 : spans.size() - 1);
}

}  // namespace

void SpanRecord::AppendJson(std::string* out) const {
  *out += kSpanId;
  AppendUint(out, span_id);
  *out += kParentSpanId;
  AppendUint(out, parent_span_id);
  *out += kComponent;
  AppendEscaped(out, component);
  *out += kOperation;
  AppendEscaped(out, operation);
  *out += kNode;
  AppendInt(out, node);
  *out += kStart;
  AppendInt(out, start);
  *out += kEnd;
  AppendInt(out, end);
  *out += kOutcome;
  AppendEscaped(out, outcome);
  *out += kSpanClose;
}

size_t SpanRecord::JsonLength() const {
  return kSpanFixedLength + UintLength(span_id) + UintLength(parent_span_id) +
         EscapedLength(component) + EscapedLength(operation) + IntLength(node) +
         IntLength(start) + IntLength(end) + EscapedLength(outcome);
}

TraceContext TraceCollector::StartTrace() {
  TraceContext ctx;
  ctx.trace_id = next_trace_id_++;
  ctx.span_id = next_span_id_++;
  return ctx;
}

TraceContext TraceCollector::ChildOf(const TraceContext& parent) {
  if (!parent.valid()) {
    return TraceContext{};
  }
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = next_span_id_++;
  ctx.parent_span_id = parent.span_id;
  ctx.hop_count = parent.hop_count + 1;
  return ctx;
}

std::string_view TraceCollector::Intern(std::string_view name) {
  return *interned_.emplace(name).first;
}

void TraceCollector::Record(const SpanRecord& span) {
  if (span.trace_id == 0) {
    return;
  }
  std::vector<SpanRecord>* spans = spans_by_trace_.Find(span.trace_id);
  // Outside the strided zone below, so that the fold's own zone is timed as
  // often as its caller.
  if (spans == nullptr && spans_by_trace_.size() >= max_traces_) {
    EvictOldest();
  }
  // Strided: a recycled-slot record is tens of nanoseconds.
  SNS_PROFILE_ZONE_STRIDE("obs.span_record", 4);
  if (spans == nullptr) {
    spans = &spans_by_trace_.Set(span.trace_id, std::move(spare_));
    spare_.clear();
    trace_order_.push_back(span.trace_id);
  }
  spans->push_back(span);
  ++span_count_;
}

void TraceCollector::SortedSpans(uint64_t trace_id, std::vector<const SpanRecord*>* out) const {
  const std::vector<SpanRecord>* spans = spans_by_trace_.Find(trace_id);
  if (spans == nullptr) {
    out->clear();
    return;
  }
  SortSpans(*spans, out);
}

std::vector<SpanRecord> TraceCollector::Trace(uint64_t trace_id) const {
  std::vector<const SpanRecord*> sorted;
  SortedSpans(trace_id, &sorted);
  std::vector<SpanRecord> spans;
  spans.reserve(sorted.size());
  for (const SpanRecord* span : sorted) {
    spans.push_back(*span);
  }
  return spans;
}

std::vector<uint64_t> TraceCollector::TraceIds() const {
  return {trace_order_.begin() + static_cast<ptrdiff_t>(order_head_), trace_order_.end()};
}

TraceCollector::Exemplar* TraceCollector::Fold::Add(TraceAnalyzer* analyzer,
                                                    uint64_t trace_id,
                                                    const std::vector<SpanRecord>& spans) {
  std::string_view outcome = kNoRootOutcome;
  std::string_view stage = kNoRootStage;
  SimTime start = 0;
  if (analyzer->Analyze(spans)) {
    paths.Add(*analyzer);
    outcome = analyzer->root().outcome;
    stage = analyzer->DominantStage();
    start = analyzer->root().start;
  } else if (!spans.empty()) {
    start = std::min_element(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
              return a.start < b.start;
            })->start;
  }
  TraceClass* cls = nullptr;
  for (TraceClass& candidate : classes) {
    if (candidate.outcome == outcome && candidate.stage == stage) {
      cls = &candidate;
      break;
    }
  }
  if (cls == nullptr) {
    cls = &classes.emplace_back();
    cls->outcome = outcome;
    cls->stage = stage;
  }
  auto window = static_cast<size_t>(std::max<SimTime>(start, 0) / kClassWindow);
  if (window >= cls->windows.size()) {
    cls->windows.resize(window + 1);
  }
  ++cls->windows[window];
  uint64_t number = cls->count++;
  if (number != cls->kept * cls->stride) {
    return nullptr;
  }
  if (cls->kept == kExemplarsPerClass) {
    for (size_t i = 1; i < kExemplarsPerClass / 2; ++i) {
      std::swap(cls->exemplars[i], cls->exemplars[2 * i]);
    }
    cls->kept = kExemplarsPerClass / 2;
    cls->stride *= 2;
  }
  Exemplar* exemplar = &cls->exemplars[cls->kept++];
  exemplar->trace_id = trace_id;
  return exemplar;
}

TraceCollector::Fold TraceCollector::Drained() const {
  Fold fold = fold_;
  TraceAnalyzer analyzer;
  for (size_t i = order_head_; i < trace_order_.size(); ++i) {
    const std::vector<SpanRecord>& spans = *spans_by_trace_.Find(trace_order_[i]);
    if (Exemplar* exemplar = fold.Add(&analyzer, trace_order_[i], spans)) {
      exemplar->spans = spans;
    }
  }
  return fold;
}

std::string TraceCollector::ToJson() const {
  Fold fold = Drained();
  std::vector<const TraceClass*> classes;
  for (const TraceClass& cls : fold.classes) {
    classes.push_back(&cls);
  }
  std::sort(classes.begin(), classes.end(), [](const TraceClass* a, const TraceClass* b) {
    return std::tie(a->outcome, a->stage) < std::tie(b->outcome, b->stage);
  });

  // Exemplars by trace id. A late span of an evicted trace starts a fragment
  // under the same id; where both were kept, the one with a root stays (then
  // the one with more spans).
  struct Kept {
    uint64_t trace_id;
    bool rootless;
    size_t span_count;
    size_t class_index;
    const std::vector<SpanRecord>* spans;
  };
  std::vector<Kept> kept;
  for (size_t c = 0; c < classes.size(); ++c) {
    for (size_t i = 0; i < classes[c]->kept; ++i) {
      const Exemplar& exemplar = classes[c]->exemplars[i];
      kept.push_back({exemplar.trace_id, classes[c]->outcome == kNoRootOutcome,
                      exemplar.spans.size(), c, &exemplar.spans});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Kept& a, const Kept& b) {
    return std::tie(a.trace_id, a.rootless, b.span_count, a.class_index) <
           std::tie(b.trace_id, b.rootless, a.span_count, b.class_index);
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Kept& a, const Kept& b) { return a.trace_id == b.trace_id; }),
             kept.end());

  // Everything after the exemplars: the classes and the window table.
  std::vector<std::vector<uint64_t>> exemplar_ids(classes.size());
  for (const Kept& k : kept) {
    exemplar_ids[k.class_index].push_back(k.trace_id);
  }
  std::string tables = "],\"classes\":[";
  size_t first_window = SIZE_MAX;
  size_t end_window = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const TraceClass& cls = *classes[c];
    if (c > 0) tables += ',';
    tables += "{\"outcome\":\"";
    AppendEscaped(&tables, cls.outcome);
    tables += "\",\"stage\":\"";
    AppendEscaped(&tables, cls.stage);
    tables += "\",\"count\":";
    AppendUint(&tables, cls.count);
    tables += ",\"exemplars\":[";
    for (size_t i = 0; i < exemplar_ids[c].size(); ++i) {
      if (i > 0) tables += ',';
      AppendUint(&tables, exemplar_ids[c][i]);
    }
    tables += "]}";
    for (size_t w = 0; w < cls.windows.size(); ++w) {
      if (cls.windows[w] > 0) {
        first_window = std::min(first_window, w);
        end_window = std::max(end_window, w + 1);
      }
    }
  }
  tables += "],\"window_s\":";
  AppendInt(&tables, kClassWindow / kSecond);
  tables += ",\"windows\":{\"start_s\":[";
  for (size_t w = first_window; w < end_window; ++w) {
    if (w > first_window) tables += ',';
    AppendInt(&tables, static_cast<int64_t>(w) * (kClassWindow / kSecond));
  }
  tables += "],\"counts\":[";
  for (size_t w = first_window; w < end_window; ++w) {
    if (w > first_window) tables += ',';
    tables += '[';
    for (size_t c = 0; c < classes.size(); ++c) {
      if (c > 0) tables += ',';
      const std::vector<uint64_t>& windows = classes[c]->windows;
      AppendUint(&tables, w < windows.size() ? windows[w] : 0);
    }
    tables += ']';
  }
  tables += "]}}";

  // Sized exactly before writing, so the buffer never grows.
  size_t size = kTracesOpen.size() + tables.size() + (kept.empty() ? 0 : kept.size() - 1);
  for (const Kept& k : kept) {
    size += TraceJsonLength(k.trace_id, *k.spans);
  }
  std::string out;
  out.reserve(size);
  out += kTracesOpen;
  std::vector<const SpanRecord*> sorted;
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) out += ',';
    SortSpans(*kept[i].spans, &sorted);
    AppendTraceJson(&out, kept[i].trace_id, sorted);
  }
  out += tables;
  return out;
}

std::string TraceCollector::TraceToJson(uint64_t trace_id) const {
  std::vector<const SpanRecord*> spans;
  SortedSpans(trace_id, &spans);
  std::string out;
  AppendTraceJson(&out, trace_id, spans);
  return out;
}

void TraceCollector::EvictOldest() {
  if (order_head_ == trace_order_.size()) {
    return;
  }
  uint64_t victim = trace_order_[order_head_++];
  if (order_head_ * 2 > trace_order_.size()) {
    trace_order_.erase(trace_order_.begin(),
                       trace_order_.begin() + static_cast<ptrdiff_t>(order_head_));
    order_head_ = 0;
  }
  std::vector<SpanRecord>* spans = spans_by_trace_.Find(victim);
  if (spans == nullptr) {
    return;
  }
  span_count_ -= spans->size();
  {
    SNS_PROFILE_ZONE("obs.trace_fold");
    if (Exemplar* exemplar = fold_.Add(&analyzer_, victim, *spans)) {
      // The exemplar keeps the spans; its old vector becomes the spare.
      std::swap(exemplar->spans, *spans);
    }
    // The next victim's spans were recorded long ago; start loading them
    // now, a request ahead of its fold.
    if (order_head_ < trace_order_.size()) {
      if (const auto* next = spans_by_trace_.Find(trace_order_[order_head_])) {
        const auto* line = reinterpret_cast<const char*>(next->data());
        const auto* end = reinterpret_cast<const char*>(next->data() + next->size());
        for (; line < end; line += 64) {
          __builtin_prefetch(line);
        }
      }
    }
  }
  spans->clear();
  spare_ = std::move(*spans);
  spans_by_trace_.Erase(victim);
}

}  // namespace sns

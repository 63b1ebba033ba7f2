#include "src/obs/trace.h"

#include <algorithm>
#include <string_view>

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

// The fixed text around the comma-separated traces of ToJson.
constexpr std::string_view kTracesOpen = "{\"traces\":[";
constexpr std::string_view kTracesClose = "]}";

bool SpanBefore(const SpanRecord* a, const SpanRecord* b) {
  if (a->start != b->start) return a->start < b->start;
  return a->span_id < b->span_id;
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
  // Strided: a recycled-slot record is tens of nanoseconds.
  SNS_PROFILE_ZONE_STRIDE("obs.span_record", 4);
  std::vector<SpanRecord>* spans = spans_by_trace_.Find(span.trace_id);
  if (spans == nullptr) {
    if (spans_by_trace_.size() >= max_traces_) {
      EvictOldest();
    }
    spans = &spans_by_trace_.Set(span.trace_id, std::move(spare_));
    spare_.clear();
    trace_order_.push_back(span.trace_id);
  }
  spans->push_back(span);
  ++span_count_;
}

void TraceCollector::SortedSpans(uint64_t trace_id, std::vector<const SpanRecord*>* out) const {
  out->clear();
  const std::vector<SpanRecord>* spans = spans_by_trace_.Find(trace_id);
  if (spans == nullptr) {
    return;
  }
  for (const SpanRecord& span : *spans) {
    out->push_back(&span);
  }
  // span_id is unique, so the order is total and does not depend on the sort.
  std::sort(out->begin(), out->end(), SpanBefore);
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

std::string TraceCollector::ToJson() const {
  // Sized exactly before writing, so the buffer never grows (it is the
  // largest section of a run artifact).
  size_t size = kTracesOpen.size() + kTracesClose.size() +
                (spans_by_trace_.empty() ? 0 : spans_by_trace_.size() - 1);
  for (size_t i = order_head_; i < trace_order_.size(); ++i) {
    size += TraceJsonLength(trace_order_[i], *spans_by_trace_.Find(trace_order_[i]));
  }
  std::string out;
  out.reserve(size);
  out += kTracesOpen;
  bool first = true;
  ForEachTrace([&](uint64_t trace_id, const std::vector<const SpanRecord*>& spans) {
    if (!first) out += ',';
    first = false;
    AppendTraceJson(&out, trace_id, spans);
  });
  out += kTracesClose;
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
  if (spans != nullptr) {
    span_count_ -= spans->size();
    spans->clear();
    spare_ = std::move(*spans);
    spans_by_trace_.Erase(victim);
  }
}

}  // namespace sns

// Distributed request tracing for the simulated cluster.
//
// The paper's monitor (§3.1.7) observes components from the outside; traces add the
// complementary inside view: one record per hop of a request's life (front end,
// cache, worker, manager) stitched together by a trace id that rides on every
// Message. Ids are allocated by a cluster-wide TraceCollector, so they are
// deterministic across runs of the simulator.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/time.h"

namespace sns {

// Carried on every Message (src/net/message.h). A zero trace_id means "untraced";
// background chatter (beacons, load reports) stays untraced unless a component
// deliberately stamps it from a request context.
struct TraceContext {
  uint64_t trace_id = 0;        // Groups all spans of one client request.
  uint64_t span_id = 0;         // This hop's span.
  uint64_t parent_span_id = 0;  // 0 for the root span.
  uint32_t hop_count = 0;       // Hops from the root; guards against forward loops.

  bool valid() const { return trace_id != 0; }
};

// One completed unit of work inside a trace, recorded by the process that did it.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string component;  // Process name, e.g. "front-end-0".
  std::string operation;  // e.g. "fe.request", "cache.get", "worker.task".
  int32_t node = -1;
  SimTime start = 0;
  SimTime end = 0;
  std::string outcome;  // "ok", "hit", "miss", "error", "timeout", ...

  // Appends {"span_id":..,"parent_span_id":..,"component":..,"operation":..,
  // "node":..,"start_ns":..,"end_ns":..,"outcome":..}.
  void AppendJson(std::string* out) const;
  // The number of bytes AppendJson appends.
  size_t JsonLength() const;
};

// Allocates trace/span ids and accumulates finished spans, reassembling them into
// whole-request traces. Owned by the Cluster so every Process shares one instance.
// Retention is bounded: once more than `max_traces` distinct trace ids are held, the
// oldest trace is evicted FIFO (long experiments keep the tail, dumps stay bounded).
class TraceCollector {
 public:
  explicit TraceCollector(size_t max_traces = 4096) : max_traces_(max_traces) {}

  // Starts a new trace; the returned context is the root span.
  TraceContext StartTrace();

  // Derives the context for a child span of `parent`. If `parent` is invalid the
  // result is invalid too (untraced work stays untraced).
  TraceContext ChildOf(const TraceContext& parent);

  // Records a finished span. Invalid (untraced) spans are dropped.
  void Record(SpanRecord span);

  // All spans of one trace, ordered by (start, span_id). Empty if unknown/evicted.
  std::vector<SpanRecord> Trace(uint64_t trace_id) const;

  // Calls fn(trace_id, spans) for every retained trace, oldest first. `spans`
  // holds the trace's spans in Trace()'s order but points into the collector,
  // so nothing is copied; it is valid only during the call.
  template <typename Fn>
  void ForEachTrace(Fn&& fn) const {
    std::vector<const SpanRecord*> spans;
    for (uint64_t trace_id : trace_order_) {
      SortedSpans(trace_id, &spans);
      fn(trace_id, std::as_const(spans));
    }
  }

  // Trace ids currently retained, oldest first.
  std::vector<uint64_t> TraceIds() const;

  size_t trace_count() const { return spans_by_trace_.size(); }
  size_t span_count() const { return span_count_; }
  uint64_t traces_started() const { return next_trace_id_ - 1; }

  // {"traces":[{"trace_id":N,"spans":[...]}, ...]} — traces oldest first.
  std::string ToJson() const;
  std::string TraceToJson(uint64_t trace_id) const;

 private:
  // Replaces *out with pointers to the trace's spans, ordered by (start, span_id).
  void SortedSpans(uint64_t trace_id, std::vector<const SpanRecord*>* out) const;
  void EvictOldest();

  size_t max_traces_;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  size_t span_count_ = 0;
  std::deque<uint64_t> trace_order_;  // Insertion order for FIFO eviction.
  std::unordered_map<uint64_t, std::vector<SpanRecord>> spans_by_trace_;
};

}  // namespace sns

#endif  // SRC_OBS_TRACE_H_

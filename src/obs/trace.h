// Distributed request tracing for the simulated cluster.
//
// The paper's monitor (§3.1.7) observes components from the outside; traces add the
// complementary inside view: one record per hop of a request's life (front end,
// cache, worker, manager) stitched together by a trace id that rides on every
// Message. Ids are allocated by a cluster-wide TraceCollector, so they are
// deterministic across runs of the simulator.
//
// The collector retains the newest traces whole, for late spans, Chrome traces
// and tests, and folds every trace exactly once as it leaves that window (or at
// export, for the traces still retained): into the critical-path summary
// (src/obs/critical_path.h) and into a class keyed by the trace's root outcome
// and dominant stage. The exported traces section holds, per class, its count,
// a few exemplar traces spread over the run, and its count per 10-s window of
// root start. Its size follows the number of classes, not the run's length.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/critical_path.h"
#include "src/util/flat_map.h"
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
//
// The three text fields are views, so recording a span copies no string. Each
// must outlive the collector, which keeps exemplar spans and class names for
// the whole run: operations and outcomes are string literals, and components
// are names stored by TraceCollector::Intern.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string_view component;  // Process name, e.g. "front-end-0".
  std::string_view operation;  // e.g. "fe.request", "cache.get", "worker.task".
  int32_t node = -1;
  SimTime start = 0;
  SimTime end = 0;
  std::string_view outcome;  // "ok", "hit", "miss", "error", "timeout", ...

  // Appends {"span_id":..,"parent_span_id":..,"component":..,"operation":..,
  // "node":..,"start_ns":..,"end_ns":..,"outcome":..}.
  void AppendJson(std::string* out) const;
  // The number of bytes AppendJson appends.
  size_t JsonLength() const;
};

// Allocates trace/span ids and accumulates finished spans, reassembling them into
// whole-request traces. Owned by the Cluster so every Process shares one instance.
// Retention is bounded: once more than `max_traces` distinct trace ids are held, the
// oldest trace is evicted FIFO and folded (see the top of this file), so no
// statistic depends on `max_traces`. An evicted trace's map node and span vector
// are kept for the next new trace, and the fold reuses its own storage, so once
// retention is full, recording performs no heap allocation.
class TraceCollector {
 public:
  explicit TraceCollector(size_t max_traces = 4096) : max_traces_(max_traces) {}

  // Starts a new trace; the returned context is the root span.
  TraceContext StartTrace();

  // Derives the context for a child span of `parent`. If `parent` is invalid the
  // result is invalid too (untraced work stays untraced).
  TraceContext ChildOf(const TraceContext& parent);

  // Returns a view of a copy of `name` that lives as long as the collector, for
  // SpanRecord::component. Equal names share one copy (and one data()).
  std::string_view Intern(std::string_view name);

  // Records a finished span. Invalid (untraced) spans are dropped.
  void Record(const SpanRecord& span);

  // All spans of one trace, ordered by (start, span_id). Empty if unknown/evicted.
  std::vector<SpanRecord> Trace(uint64_t trace_id) const;

  // Calls fn(trace_id, spans) for every retained trace, oldest first. `spans`
  // holds the trace's spans in Trace()'s order but points into the collector,
  // so nothing is copied; it is valid only during the call.
  template <typename Fn>
  void ForEachTrace(Fn&& fn) const {
    std::vector<const SpanRecord*> spans;
    for (size_t i = order_head_; i < trace_order_.size(); ++i) {
      uint64_t trace_id = trace_order_[i];
      SortedSpans(trace_id, &spans);
      fn(trace_id, std::as_const(spans));
    }
  }

  // Trace ids currently retained, oldest first.
  std::vector<uint64_t> TraceIds() const;

  size_t trace_count() const { return spans_by_trace_.size(); }
  size_t span_count() const { return span_count_; }
  uint64_t traces_started() const { return next_trace_id_ - 1; }

  // The traces section, over every trace seen:
  //   {"traces":[{"trace_id":N,"spans":[...]},...],  exemplars, by trace id
  //    "classes":[{"outcome":..,"stage":..,"count":N,"exemplars":[ids]},...],
  //    "window_s":10,
  //    "windows":{"start_s":[...],"counts":[[per class],...]}}
  // Classes are in (outcome, stage) order and each window's counts follow it.
  // A trace without a root span has outcome "no_root" and stage "none".
  std::string ToJson() const;
  std::string TraceToJson(uint64_t trace_id) const;

 private:
  static constexpr size_t kExemplarsPerClass = 8;
  static constexpr SimDuration kClassWindow = Seconds(10);

  struct Exemplar {
    uint64_t trace_id = 0;
    std::vector<SpanRecord> spans;
  };
  // The folded traces that share a root outcome and a dominant stage.
  struct TraceClass {
    std::string_view outcome;
    std::string_view stage;
    uint64_t count = 0;
    std::vector<uint64_t> windows;  // Count per kClassWindow of root start, from 0.
    // The exemplars are the class's traces number 0, stride, 2 * stride, ... in
    // fold order. When they are full, every other one is dropped and the stride
    // doubles, so they stay spread evenly over the class.
    uint64_t stride = 1;
    size_t kept = 0;
    std::array<Exemplar, kExemplarsPerClass> exemplars;
  };
  // What the folded traces add up to.
  struct Fold {
    CriticalPathSummary paths;
    std::vector<TraceClass> classes;

    // Folds one trace. Returns the exemplar the trace is to fill (its id set,
    // its spans the caller's to give), or nullptr.
    Exemplar* Add(TraceAnalyzer* analyzer, uint64_t trace_id,
                  const std::vector<SpanRecord>& spans);
  };

  // Reads Drained() for CriticalPathSummary::FromCollector.
  friend class CriticalPathSummary;

  // Replaces *out with pointers to the trace's spans, ordered by (start, span_id).
  void SortedSpans(uint64_t trace_id, std::vector<const SpanRecord*>* out) const;
  void EvictOldest();
  // The fold with the retained traces added, oldest first, as eviction would.
  Fold Drained() const;


  size_t max_traces_;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  size_t span_count_ = 0;
  // Retained trace ids in insertion order, from order_head_ on; eviction advances
  // the head and the drained prefix is compacted away once it is half the vector.
  std::vector<uint64_t> trace_order_;
  size_t order_head_ = 0;
  FlatMap<uint64_t, std::vector<SpanRecord>> spans_by_trace_;
  // The last evicted trace's span vector, emptied: the next new trace takes
  // it over, so a full collector records without allocating.
  std::vector<SpanRecord> spare_;
  std::unordered_set<std::string> interned_;  // Node-based: views stay valid.
  // Every evicted trace, folded.
  Fold fold_;
  TraceAnalyzer analyzer_;
};

}  // namespace sns

#endif  // SRC_OBS_TRACE_H_

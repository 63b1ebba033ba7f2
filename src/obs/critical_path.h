// Critical-path analysis: decomposes each completed request's end-to-end latency
// into named stages by walking its span tree.
//
// Answers "where did this request's 800 ms go?" — the question an end-of-run
// counter snapshot cannot. For every trace with a recorded root span the analyzer
// attributes each nanosecond of the root's duration to exactly one stage:
// intervals covered by a child span recurse into the child; gaps between children
// are charged to the enclosing span's own stage (for the root that is SAN
// transit — time the request spent on the wire between client and front end).
// Children are clipped to their parent's window and to each other, so the stage
// sums equal the root's duration *exactly* (integer nanoseconds, no residue).
//
// The summary covers every request of a run, not only the traces the collector
// still retains: TraceCollector folds each trace into its running summary once,
// as the trace leaves the retention FIFO, and FromCollector adds the retained
// rest. One analyzer does all of it. It keeps stage times in a fixed table and
// reuses its scratch, so once warm a fold allocates nothing.
//
// Stage names (the vocabulary of the breakdown table):
//   fe_accept_queue_wait  waiting for a free front-end thread
//   fe_processing         front-end dispatch logic + per-request CPU
//   cache_lookup          cache-node get handling
//   cache_write           cache-node put handling (usually off the critical path)
//   profile_lookup        customization-database fetch (network included)
//   origin_fetch          fetch from the simulated Internet
//   worker_queue_wait     queued at the worker before service
//   worker_service        worker compute
//   san_transit           message transit between components
//   retry_backoff_idle    deliberate idle between task retry attempts
//   manager_stub_lookup   waiting on the manager to locate/spawn a worker

#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/stats.h"
#include "src/util/time.h"

namespace sns {

struct SpanRecord;     // src/obs/trace.h
class TraceCollector;  // src/obs/trace.h

// The fixed stage table, in name order: the order the summary prints.
inline constexpr std::array<std::string_view, 11> kCriticalStages = {
    "cache_lookup",       "cache_write",    "fe_accept_queue_wait", "fe_processing",
    "manager_stub_lookup", "origin_fetch",  "profile_lookup",       "retry_backoff_idle",
    "san_transit",        "worker_queue_wait", "worker_service"};
inline constexpr size_t kCriticalStageCount = kCriticalStages.size();

// The stage charged for a span's self time (the parts of its window not covered
// by children). Unknown operations attribute to their own name, keeping sums
// exact for services that add custom spans; the result then views `operation`.
std::string_view CriticalStageFor(std::string_view operation);

// One request's decomposition. Invariant: the values in `stages` sum to `total`.
struct CriticalPath {
  uint64_t trace_id = 0;
  SimDuration total = 0;  // Root span duration (client-observed latency).
  std::string root_outcome;
  std::map<std::string, SimDuration, std::less<>> stages;

  SimDuration StageSum() const;
};

// Decomposes one trace at a time into its own storage. Analyze() reuses the
// scratch of the previous call, so a warm analyzer allocates nothing (unless a
// trace is larger than any before it, or names a stage outside the table).
class TraceAnalyzer {
 public:
  // Decomposes the trace's spans, in any order; span ids must be unique within
  // the trace. False for a trace without a root span (a request still in
  // flight, or a fragment of an evicted trace); the accessors below then
  // describe nothing.
  bool Analyze(const std::vector<SpanRecord>& spans);
  bool Analyze(const std::vector<const SpanRecord*>& spans);

  const SpanRecord& root() const { return *root_; }
  SimDuration total() const { return total_; }
  // Nanoseconds charged to kCriticalStages[i].
  SimDuration stage(size_t i) const { return stages_[i]; }
  // Stages named by operations outside the table, in first-charged order.
  const std::vector<std::pair<std::string_view, SimDuration>>& custom_stages() const {
    return custom_;
  }
  // The stage with the most time, ties to the table's first and then to the
  // custom stages' first; the root's own stage for a zero-length root.
  std::string_view DominantStage() const;

 private:
  static constexpr uint32_t kNoSpan = UINT32_MAX;
  // A span and its place in the tree: its children form a list in (start,
  // span_id) order.
  struct Node {
    const SpanRecord* span;
    uint32_t first_child;
    uint32_t last_child;
    uint32_t next_sibling;
  };

  void Add(const SpanRecord* span);
  bool Run();
  // Links node `child` into node `parent`'s child list.
  void Adopt(uint32_t parent, uint32_t child);
  void Attribute(uint32_t node, SimTime lo, SimTime hi, int depth);
  // Charges `d` to kCriticalStages[index], or to `operation`'s own stage when
  // the index is past the table.
  void Charge(size_t index, std::string_view operation, SimDuration d);

  std::vector<Node> nodes_;
  std::vector<uint32_t> by_id_;  // Open-addressed span id -> index into nodes_.
  const SpanRecord* root_ = nullptr;
  SimDuration total_ = 0;
  std::array<SimDuration, kCriticalStageCount> stages_{};
  std::vector<std::pair<std::string_view, SimDuration>> custom_;
};

// Decomposes one trace's spans (as returned by TraceCollector::Trace). Returns
// nullopt for traces without a root span (requests still in flight when the
// collector was read, or partially evicted traces).
std::optional<CriticalPath> AnalyzeTrace(const std::vector<SpanRecord>& spans);
// The same over pointers in that order, as TraceCollector::ForEachTrace hands them out.
std::optional<CriticalPath> AnalyzeTrace(const std::vector<const SpanRecord*>& spans);

// Aggregates per-request decompositions into per-stage histograms and a
// p50/p99 breakdown table.
class CriticalPathSummary {
 public:
  CriticalPathSummary();

  // Adds the trace `analyzer` last decomposed. Allocates nothing unless the
  // trace has a stage outside the table that no request had before.
  void Add(const TraceAnalyzer& analyzer);
  // Every request the collector has seen with a root span: the traces it
  // folded on eviction plus the retained ones, each counted once.
  static CriticalPathSummary FromCollector(const TraceCollector& collector);

  int64_t request_count() const { return requests_; }
  // Per-request seconds spent in the stage; nullptr for stages no request had.
  const LogHistogram* StageHistogram(std::string_view stage) const;

  // {"requests":N,"total":{...},"stages":{"name":{"count":..,"total_s":..,
  //  "share":..,"p50_s":..,"p99_s":..},...}} — share is the stage's fraction of
  // all attributed time across requests.
  std::string ToJson() const;
  // Human-readable breakdown table (bench stdout).
  std::string RenderTable() const;

 private:
  struct StageStats {
    LogHistogram hist;
    double total_s = 0.0;
    int64_t count = 0;  // Requests with nonzero time in this stage.
  };

  void AddStage(StageStats* stats, SimDuration d);
  StageStats* CustomStage(std::string_view stage);
  // Every stage some request had, in name order.
  std::vector<std::pair<std::string_view, const StageStats*>> SortedStages() const;

  int64_t requests_ = 0;
  LogHistogram total_hist_;
  std::vector<StageStats> stages_;  // Indexed like kCriticalStages.
  std::map<std::string, StageStats, std::less<>> custom_stages_;
};

}  // namespace sns

#endif  // SRC_OBS_CRITICAL_PATH_H_

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

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace sns {

// The stage charged for a span's self time (the parts of its window not covered
// by children). Unknown operations attribute to their own name, keeping sums
// exact for services that add custom spans.
std::string CriticalStageFor(const std::string& operation);

// One request's decomposition. Invariant: the values in `stages` sum to `total`.
struct CriticalPath {
  uint64_t trace_id = 0;
  SimDuration total = 0;  // Root span duration (client-observed latency).
  std::string root_outcome;
  std::map<std::string, SimDuration> stages;

  SimDuration StageSum() const;
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

  void Add(const CriticalPath& path);
  // Analyzes and adds every retained trace of `collector` that has a root span.
  static CriticalPathSummary FromCollector(const TraceCollector& collector);

  int64_t request_count() const { return requests_; }
  std::vector<std::string> StageNames() const;
  // Per-request seconds spent in the stage; nullptr for unknown stages.
  const LogHistogram* StageHistogram(const std::string& stage) const;
  const LogHistogram& TotalHistogram() const { return total_hist_; }

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

  StageStats* GetStage(const std::string& stage);

  int64_t requests_ = 0;
  LogHistogram total_hist_;
  std::map<std::string, StageStats> stages_;
};

}  // namespace sns

#endif  // SRC_OBS_CRITICAL_PATH_H_

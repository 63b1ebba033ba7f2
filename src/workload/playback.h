// The trace playback engine (paper §4.1).
//
// "The engine can generate requests at a constant (and dynamically tunable) rate,
// or it can faithfully play back a trace according to the timestamps in the trace
// file." It doubles as the client population: it applies client-side front-end
// selection (round-robin over the currently live FEs — the role the paper gives
// client-side JavaScript), per-request timeouts, and detailed latency accounting.

#ifndef SRC_WORKLOAD_PLAYBACK_H_
#define SRC_WORKLOAD_PLAYBACK_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/process.h"
#include "src/obs/availability.h"
#include "src/sim/timer.h"
#include "src/sns/messages.h"
#include "src/util/flat_map.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/trace.h"

namespace sns {

struct PlaybackConfig {
  uint64_t seed = 0xCAFE;
  SimDuration request_timeout = Seconds(30);
  // When > 0, each request carries an absolute deadline of now + request_deadline;
  // the service sheds the request wherever it is when the deadline passes. 0 keeps
  // the legacy best-effort behavior (no deadline on the wire).
  SimDuration request_deadline = 0;
  // Client-side load balancing: fills `out` (cleared first) with the currently
  // live front ends. Re-queried for every request, masking transient FE
  // failures (§3.1.2); the engine reuses one buffer for every query.
  std::function<void(std::vector<Endpoint>* out)> front_ends;
  // Fired once per completed request (not for timeouts / send failures) with the
  // request's user id and whether the service answered Ok. The chaos campaign's
  // write ledger uses this to mark which profile writes the client saw
  // acknowledged.
  std::function<void(const std::string& user_id, bool ok)> on_response;
  // When set, every request is entered into the harvest/yield ledger: offered at
  // send time, answered (with a harvest fraction derived from the response's
  // provenance) or unanswered (timeout / error / late / no reachable FE) at
  // resolution, in the window of its send time. Not owned. TranSendService
  // wires its system ledger in by default.
  AvailabilityLedger* availability = nullptr;
};

class PlaybackEngine : public Process {
 public:
  explicit PlaybackEngine(const PlaybackConfig& config);

  void OnStop() override;

  // --- Load generation ------------------------------------------------------------
  // Constant-rate mode: issues `next` every 1/rate seconds until StopLoad or rate
  // change. Rate may be changed on the fly (the "dynamically tunable" knob).
  void StartConstantRate(double requests_per_second, std::function<TraceRecord()> next);
  void SetRate(double requests_per_second);
  void StopLoad();

  // Trace mode: plays `records` (sorted by time) with timestamps offset to start
  // `lead_in` from now.
  void PlayTrace(std::vector<TraceRecord> records, SimDuration lead_in = Seconds(1));

  // One-shot request (tests and examples). Returns the trace id of the root span
  // opened for the request (0 if no front end was reachable).
  uint64_t SendRequest(const TraceRecord& record,
                       std::map<std::string, std::string> params = {});

  // --- Results --------------------------------------------------------------------
  int64_t sent() const { return sent_; }
  int64_t completed() const { return completed_; }
  int64_t errors() const { return errors_; }        // Error statuses from the service.
  int64_t timeouts() const { return timeouts_; }    // No response at all.
  int64_t send_failures() const { return send_failures_; }
  // OK responses that arrived after the request's deadline — should stay zero when
  // the service enforces deadlines end to end.
  int64_t late_completions() const { return late_completions_; }
  int64_t bytes_received() const { return bytes_received_; }
  int64_t outstanding() const { return static_cast<int64_t>(pending_.size()); }
  const RunningStats& latency_stats() const { return latency_s_; }
  const Histogram& latency_histogram() const { return latency_hist_; }
  const std::map<std::string, int64_t>& responses_by_source() const { return by_source_; }
  // Completed-request counts bucketed by second of completion (throughput curves).
  const std::map<int64_t, int64_t>& completions_per_second() const { return completions_sec_; }
  // Observed service throughput over the last `window` (completions/second).
  double RecentThroughput(SimDuration window) const;
  void ResetStats();

 private:
  struct PendingRequest {
    SimTime sent_at = 0;
    SimTime deadline = kTimeNever;
    EventId timeout = kInvalidEventId;
    TraceContext trace;  // Root span of the request's end-to-end trace.
    std::string user_id;
  };

  void OnMessage(const Message& msg) override;
  void ConstantRateTick();
  void PlayNextFromTrace();
  Endpoint PickFrontEnd();

  PlaybackConfig config_;
  Rng rng_;
  uint64_t next_request_id_ = 1;
  size_t fe_rr_ = 0;
  std::vector<Endpoint> live_fes_;  // PickFrontEnd's reused query buffer.

  // Constant-rate state.
  double rate_ = 0;
  std::function<TraceRecord()> next_fn_;
  EventId rate_event_ = kInvalidEventId;

  // Trace state.
  std::vector<TraceRecord> trace_;
  size_t trace_pos_ = 0;
  SimTime trace_offset_ = 0;

  FlatMap<uint64_t, PendingRequest> pending_;

  int64_t sent_ = 0;
  int64_t completed_ = 0;
  int64_t errors_ = 0;
  int64_t timeouts_ = 0;
  int64_t send_failures_ = 0;
  int64_t late_completions_ = 0;
  int64_t bytes_received_ = 0;
  RunningStats latency_s_;
  Histogram latency_hist_{0.0, 30.0, 3000};
  std::map<std::string, int64_t> by_source_;
  std::map<int64_t, int64_t> completions_sec_;
};

}  // namespace sns

#endif  // SRC_WORKLOAD_PLAYBACK_H_

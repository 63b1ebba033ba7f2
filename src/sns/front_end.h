// The front end: the service's interface to the outside world (paper §2.1, §3.1.1).
//
// "Front ends maximize system throughput by maintaining state for many simultaneous
// outstanding requests" — each accepted request occupies one thread from a large
// pool (TranSend production ran ~400) and is driven as an asynchronous state
// machine: profile lookup (write-through cached), cache probes, worker dispatch
// through the manager stub, origin fetches, and the final client response.
//
// The front end encapsulates the service-specific dispatch logic behind
// FrontEndLogic, so "the behavior of the service as a whole [is] defined almost
// entirely in the front end" (§2.2.1) while the SNS machinery here stays reusable.
//
// Process-peer duties (§3.1.3): the front end watches manager beacons and restarts
// a silent manager; the manager symmetrically restarts silent front ends.

#ifndef SRC_SNS_FRONT_END_H_
#define SRC_SNS_FRONT_END_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/cluster/process.h"
#include "src/obs/metrics.h"
#include "src/sim/callback.h"
#include "src/sim/timer.h"
#include "src/sns/config.h"
#include "src/sns/launcher.h"
#include "src/sns/manager_stub.h"
#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"
#include "src/store/lru_cache.h"
#include "src/tacc/pipeline.h"
#include "src/util/flat_map.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sns {

class FrontEndProcess;

// A request-path continuation: captures up to 96 bytes are stored inline, so
// the continuations a service chains through a request allocate nothing.
template <typename Signature>
using RequestCallback = InlineFunction<Signature, 96>;

// Per-request handle given to the service logic. All facility calls are
// asynchronous; callbacks fire only while the request is still live (not yet
// responded, front end still running). The front end recycles a context once
// its request has responded, so a logic must not keep the pointer past that.
class RequestContext {
 public:
  using ProfileCb = RequestCallback<void(RequestContext*, bool found, const UserProfile&)>;
  using PutCb = RequestCallback<void(RequestContext*, Status)>;
  using CacheCb = RequestCallback<void(RequestContext*, bool hit, ContentPtr)>;
  using ContentCb = RequestCallback<void(RequestContext*, Status, ContentPtr)>;

  const ClientRequestPayload& request() const { return *request_; }
  uint64_t id() const { return id_; }
  SimTime started_at() const { return started_; }
  // Absolute deadline carried by the client request (kTimeNever if none). Facility
  // ops are budget-capped against it and a request never completes after it.
  SimTime deadline() const { return deadline_; }
  // This request's span context; facility messages are stamped with it so cache
  // nodes, workers and the manager record into the same trace.
  const TraceContext& trace() const { return trace_; }
  SimTime now() const;
  Rng* rng();

  // Profile database access with the FE's write-through cache (§3.1.4).
  void GetProfile(ProfileCb cb);
  // Acknowledged write (DESIGN.md §14): `cb` fires with Ok only after the DB
  // commits and acks — the local cache is updated then, not before.
  void PutProfile(const UserProfile& profile, PutCb cb);

  // The profile attached to this request. Once set (typically inside the GetProfile
  // callback), it is automatically delivered to workers with every task — the TACC
  // mass-customization contract (§2.3).
  void SetProfile(UserProfile profile) { profile_ = std::move(profile); }
  const UserProfile& profile() const { return profile_; }

  // Virtual cache: the key space is hashed across all live cache partitions
  // (§3.1.5); a timeout counts as a miss.
  void CacheGet(std::string key, CacheCb cb);
  void CachePut(const std::string& key, ContentPtr content);

  // Fetch from the simulated Internet (cache-miss path).
  void Fetch(const std::string& url, ContentCb cb);

  // Ships a task to a worker of `type` chosen by lottery scheduling; on timeout or
  // broken connection, retries on another worker (§3.1.8 "the request will time out
  // and another worker will be chosen"). If no worker is known, asks the manager to
  // spawn one and waits briefly.
  void CallWorker(const std::string& type, std::map<std::string, std::string> args,
                  std::vector<ContentPtr> inputs, ContentCb cb);

  // Chains CallWorker over the stages of a TACC pipeline (§2.3).
  void CallPipeline(const PipelineSpec& spec, std::vector<ContentPtr> inputs, ContentCb cb);

  // Completes the request. Exactly one Respond per request; later facility
  // callbacks are dropped.
  // The status moves into the reply: pass an rvalue to send it without a copy.
  void Respond(Status status, ContentPtr content, ResponseSource source, bool cache_hit);

 private:
  friend class FrontEndProcess;

  FrontEndProcess* fe_ = nullptr;
  uint64_t id_ = 0;
  std::shared_ptr<const ClientRequestPayload> request_;
  Endpoint client_;
  SimTime started_ = 0;
  SimTime deadline_ = kTimeNever;
  bool responded_ = false;
  UserProfile profile_;
  TraceContext trace_;
};

// Service-specific dispatch logic (the Service layer of Figure 2).
class FrontEndLogic {
 public:
  virtual ~FrontEndLogic() = default;
  virtual void HandleRequest(RequestContext* ctx) = 0;
};

struct FrontEndOptions {
  int fe_index = 0;
  Endpoint origin;  // The simulated Internet gateway; invalid if the service has none.
  uint64_t seed = 0x5EED;
};

class FrontEndProcess : public Process {
 public:
  FrontEndProcess(const SnsConfig& config, const FrontEndOptions& options,
                  std::shared_ptr<FrontEndLogic> logic, ComponentLauncher* launcher);

  void OnStart() override;
  void OnStop() override;
  void OnMessage(const Message& msg) override;

  // --- Observability ------------------------------------------------------------
  int fe_index() const { return options_.fe_index; }
  const ManagerStub& stub() const { return stub_; }
  int active_requests() const { return active_; }
  int queued_requests() const { return static_cast<int>(accept_queue_.size()); }
  int peak_active_requests() const { return peak_active_; }
  // Counters live in the cluster's MetricsRegistry under "fe.<index>.*"; they are
  // cumulative across front-end restarts.
  int64_t completed_requests() const { return CounterOr0(completed_); }
  int64_t manager_restarts_triggered() const { return CounterOr0(manager_restarts_); }
  int64_t deadline_expired() const { return CounterOr0(deadline_expired_); }
  int64_t retries_backoff() const { return CounterOr0(retries_backoff_); }
  int64_t ring_remaps() const { return CounterOr0(ring_remaps_); }
  int64_t cache_replica_puts() const { return CounterOr0(replica_puts_); }
  const LruCache<std::string, UserProfile>& profile_cache() const { return profile_cache_; }
  const Histogram& latency_histogram() const { return *latency_hist_; }
  const std::map<std::string, int64_t>& responses_by_source() const {
    return responses_by_source_;
  }

  // Accept queue bound; beyond it the FE sheds load with an error (the paper's FEs
  // simply stopped accepting connections when saturated).
  static constexpr size_t kAcceptQueueCapacity = 4000;

 private:
  friend class RequestContext;

  static int64_t CounterOr0(const Counter* c) { return c != nullptr ? c->value() : 0; }

  struct PendingTask {
    uint64_t request_id = 0;
    std::string type;
    std::shared_ptr<TaskRequestPayload> payload;
    RequestContext::ContentCb cb;
    Endpoint worker;
    Endpoint avoid;      // The worker the previous attempt failed on; retries skip it.
    TraceContext trace;  // The owning request's context.
    // Per-attempt span: a fresh child of `trace` for every dispatch, so retries
    // show up as sibling subtrees and the analyzer can see the gaps between them.
    TraceContext attempt_trace;
    SimTime attempt_started = 0;
    int attempts_left = 0;
    int spawn_waits_left = 0;
    // The current attempt's timer; kInvalidEventId while no attempt is open.
    EventId timeout = kInvalidEventId;
  };
  struct AcceptedRequest {
    std::shared_ptr<const ClientRequestPayload> request;
    Endpoint client;
    TraceContext trace;  // The client's root context, preserved while queued.
    SimTime enqueued_at = 0;
    SimTime deadline = kTimeNever;
  };
  // A facility op (profile read or write, cache probe, origin fetch): one
  // request message answered by one reply, with a timeout as the backstop.
  // Each op carries its own child span ([send .. reply/timeout]) so the
  // server-side span nests inside and wire time is visible as the FE span's
  // self time. Worker tasks are not ops: a task id spans retries and accepts a
  // late reply from an earlier attempt.
  struct PendingOp;
  // The op kind's own finish. `ctx` is null when the request is gone or has
  // responded; `reply` is null on timeout.
  using OpFinish = void (FrontEndProcess::*)(PendingOp& op, RequestContext* ctx,
                                             const Message* reply);
  // The caller's typed callback, stored as given (no second wrapper).
  using OpCallback = std::variant<RequestContext::ProfileCb, RequestContext::PutCb,
                                  RequestContext::CacheCb, RequestContext::ContentCb>;
  struct PendingOp {
    PendingOp() = default;  // An empty table slot.
    PendingOp(std::string_view op_span, OpFinish op_finish, OpCallback op_cb)
        : span(op_span), finish(op_finish), cb(std::move(op_cb)) {}

    std::string_view span;  // The fe.* operation; a string literal.
    OpFinish finish = nullptr;
    OpCallback cb;
    std::shared_ptr<const Payload> request;  // As sent (the put's profile, the probe's key).
    uint64_t request_id = 0;
    TraceContext trace;
    SimTime started = 0;
    EventId timeout = kInvalidEventId;
    // Cache probes: the replica chain captured at issue time. Probe
    // chain[attempt]; on a miss or timeout fail over to the next replica.
    ManagerStub::CacheChain chain;
    size_t attempt = 0;
  };

  // --- Message handlers -----------------------------------------------------------
  void HandleBeacon(const ManagerBeaconPayload& beacon);
  void HandleClientRequest(const Message& msg);
  void HandleTaskResponse(const Message& msg);

  // --- Request lifecycle ------------------------------------------------------------
  void StartRequest(std::shared_ptr<const ClientRequestPayload> request, Endpoint client,
                    const TraceContext& client_trace);
  void FinishRequest(RequestContext* ctx, Status status, const ContentPtr& content,
                     ResponseSource source, bool cache_hit);
  RequestContext* FindContext(uint64_t request_id);
  // A context for a new request: a recycled one when a finished request left
  // one behind, else a fresh one.
  std::unique_ptr<RequestContext> AcquireContext();
  // Dequeues queued requests into free threads, dropping expired entries on the way.
  void DrainAcceptQueue();
  // Evicts every expired entry from the accept queue (the periodic sweep, so an
  // expired request does not wait for a free thread just to be rejected).
  void ExpireAcceptQueue();
  // Responds "deadline exceeded" for a request that died while still queued.
  void ExpireQueuedRequest(const AcceptedRequest& entry);
  // Answers a request that never got a thread (dead on arrival, shed, expired
  // while queued).
  void SendErrorResponse(const Endpoint& client, uint64_t client_request_id, Status status,
                         const TraceContext& trace);
  // Time left until `ctx`'s deadline; kTimeNever when the request has none.
  SimDuration RemainingBudget(const RequestContext* ctx) const;
  // An op timeout never extends past the request's remaining deadline budget.
  static SimDuration CapToBudget(SimDuration timeout, SimDuration budget) {
    return budget == kTimeNever ? timeout : std::min(timeout, budget);
  }

  // --- Facility ops --------------------------------------------------------------------
  // Opens the op's child span, arms its timeout (capped to the request's
  // remaining budget), stores it under `op_id` and sends `msg` reliably.
  void SendOp(RequestContext* ctx, uint64_t op_id, PendingOp&& op, SimDuration timeout,
              Message msg, San::SendOptions opts = {});
  // Ends op `op_id` with `outcome` (no-op once it has ended): erases it, cancels
  // its timer, records its span and runs its finish.
  void FinishOp(uint64_t op_id, std::string_view outcome, const Message* reply);
  void FinishProfileGet(PendingOp& op, RequestContext* ctx, const Message* reply);
  void FinishProfilePut(PendingOp& op, RequestContext* ctx, const Message* reply);
  void FinishCacheGet(PendingOp& op, RequestContext* ctx, const Message* reply);
  void FinishFetch(PendingOp& op, RequestContext* ctx, const Message* reply);

  // --- Facilities used by RequestContext ---------------------------------------------
  void DoGetProfile(RequestContext* ctx, RequestContext::ProfileCb cb);
  void DoPutProfile(RequestContext* ctx, const UserProfile& profile,
                    RequestContext::PutCb cb);
  void DoCacheGet(RequestContext* ctx, std::string key, RequestContext::CacheCb cb);
  void DoCachePut(RequestContext* ctx, const std::string& key, ContentPtr content);
  // Sends the probe to `chain[attempt]` under a fresh op id, so a late reply
  // from an abandoned attempt cannot masquerade as the current one.
  void SendCacheProbe(PendingOp&& op, std::string key);
  void SendCachePutTo(const Endpoint& dst, std::shared_ptr<CachePutPayload> payload,
                      const TraceContext& trace);
  void DoFetch(RequestContext* ctx, const std::string& url, RequestContext::ContentCb cb);
  void DoCallWorker(RequestContext* ctx, const std::string& type,
                    std::map<std::string, std::string> args, std::vector<ContentPtr> inputs,
                    RequestContext::ContentCb cb);
  void RunPipelineStage(RequestContext* ctx, std::shared_ptr<const PipelineSpec> spec,
                        size_t stage, ContentPtr current, std::vector<ContentPtr> first_inputs,
                        RequestContext::ContentCb cb);

  // --- Task dispatch internals ---------------------------------------------------------
  void AttemptTask(uint64_t task_id);
  void TaskAttemptFailed(uint64_t task_id, bool worker_dead);
  // Ends the task's current attempt, which the task may outlive: records the
  // attempt's span, tells the stub the worker is done with it, and marks the
  // attempt closed (timeout = kInvalidEventId) for a reply that lands later.
  void CloseAttempt(PendingTask& task, const char* outcome);
  void FailTask(uint64_t task_id, Status status);
  void ReportWorkerDead(const Endpoint& worker, const std::string& type);

  // --- Housekeeping -----------------------------------------------------------------
  // This front end's entry in the manager's soft state (registration and reports).
  LoadReportPayload Load() const;
  void Heartbeat();
  void Watchdog();

  SnsConfig config_;
  FrontEndOptions options_;
  std::shared_ptr<FrontEndLogic> logic_;
  ComponentLauncher* launcher_;
  Rng rng_;
  ManagerStub stub_;

  uint64_t next_id_ = 1;
  // Live requests by id. A finished request's context goes to free_contexts_
  // and serves a later request, so the steady state allocates no context.
  FlatMap<uint64_t, std::unique_ptr<RequestContext>> contexts_;
  std::vector<std::unique_ptr<RequestContext>> free_contexts_;
  std::deque<AcceptedRequest> accept_queue_;
  int active_ = 0;
  int peak_active_ = 0;

  // Slots are recycled in place; a pointer into either table is good only
  // until the next insertion.
  FlatMap<uint64_t, PendingTask> pending_tasks_;
  FlatMap<uint64_t, PendingOp> pending_ops_;

  // Write-through (§3.1.4), byte-bounded: millions of distinct users must not
  // grow FE memory without limit.
  LruCache<std::string, UserProfile> profile_cache_;

  std::unique_ptr<PeriodicTimer> heartbeat_timer_;
  std::unique_ptr<PeriodicTimer> watchdog_timer_;
  std::unique_ptr<PeriodicTimer> queue_sweep_timer_;

  // Ring membership changes already exported to ring_remaps_ (per incarnation).
  uint64_t ring_changes_seen_ = 0;

  // Registry instruments under "fe.<index>.*", bound in OnStart.
  Counter* completed_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* task_timeouts_ = nullptr;
  Counter* task_retries_used_ = nullptr;
  Counter* manager_restarts_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* deadline_expired_ = nullptr;
  Counter* retries_backoff_ = nullptr;
  Counter* ring_remaps_ = nullptr;
  Counter* cache_failovers_ = nullptr;
  Counter* read_repairs_ = nullptr;
  Counter* replica_puts_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Gauge* queued_gauge_ = nullptr;
  Gauge* profile_cache_gauge_ = nullptr;
  Histogram* latency_hist_ = nullptr;  // Seconds.
  std::map<std::string, int64_t> responses_by_source_;
};

}  // namespace sns

#endif  // SRC_SNS_FRONT_END_H_

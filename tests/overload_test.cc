// Overload-control tests: per-request deadlines (accept queue, mid-pipeline, worker
// queue, cache ops), backoff retries that avoid the timed-out worker, and the
// load-accounting fixes (cache puts counted, gauges fresh at op time).

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/net/san.h"
#include "src/services/transend/transend.h"
#include "src/sim/simulator.h"
#include "src/sns/cache_node.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

TranSendOptions TinyOptions() {
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 100;
  return options;
}

std::string BigJpegUrl(TranSendService* service) {
  for (int64_t i = 0; i < service->universe()->url_count(); ++i) {
    std::string url = service->universe()->UrlAt(i);
    if (service->universe()->MimeOf(url) == MimeType::kJpeg &&
        service->universe()->ModeledSize(url) > 8192) {
      return url;
    }
  }
  return "";
}

// ---------- deadlines on the request path ----------------------------------------------

TEST(DeadlineTest, ExpiresInAcceptQueueAndGaugesStayFresh) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = TinyOptions();
  options.sns.fe_thread_pool_size = 1;  // One slow request blocks the pool.
  // No worker nodes: the blocker's distill attempt sits in the spawn-wait loop
  // (20 x 300 ms) before its approximate-answer fallback, deterministically
  // holding the single thread for ~6 s.
  options.topology.worker_pool_nodes = 0;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* blocker = service.AddPlaybackEngine(0x1111);
  PlaybackConfig deadline_config;
  deadline_config.seed = 0x2222;
  deadline_config.request_deadline = Seconds(2);
  PlaybackEngine* client = service.AddPlaybackEngine(deadline_config);
  service.sim()->RunFor(Seconds(2));

  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());
  TraceRecord record;
  record.user_id = "blocker";
  record.url = url;
  blocker->SendRequest(record);
  // Let the blocker occupy the single thread (cold path: fetch + spawn, tens of
  // seconds), then queue a deadline-bearing request behind it.
  service.sim()->RunFor(Milliseconds(500));
  TraceRecord record2;
  record2.user_id = "impatient";
  record2.url = url;
  client->SendRequest(record2);

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  // The queued gauge reflects the enqueue immediately, not at the next report.
  service.sim()->RunFor(Milliseconds(300));
  EXPECT_EQ(fe->queued_requests(), 1);
  std::string prefix = StrFormat("fe.%d.", 0);
  EXPECT_EQ(service.system()->cluster()->metrics()->GetGauge(prefix + "queued_requests")->value(),
            1.0);

  // At the deadline the sweep evicts the entry and answers the client.
  service.sim()->RunFor(Seconds(4));
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 1);
  EXPECT_EQ(client->late_completions(), 0);
  EXPECT_EQ(fe->queued_requests(), 0);
  EXPECT_GE(fe->deadline_expired(), 1);
  EXPECT_EQ(service.system()->cluster()->metrics()->GetGauge(prefix + "queued_requests")->value(),
            0.0);
}

TEST(DeadlineTest, ExpiresMidPipelineWithoutLateCompletion) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  PlaybackConfig config;
  config.seed = 0x3333;
  config.request_deadline = Milliseconds(800);
  PlaybackEngine* client = service.AddPlaybackEngine(config);
  service.sim()->RunFor(Seconds(2));

  // Cold path (origin fetch + worker spawn) cannot finish in 800 ms: the budget
  // caps every stage timeout, so the request dies at its deadline instead of
  // completing uselessly late.
  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());
  TraceRecord record;
  record.user_id = "deadline";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(20));

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 1);
  EXPECT_EQ(client->late_completions(), 0);
  EXPECT_GE(fe->deadline_expired(), 1);
}

// ---------- retry discipline -----------------------------------------------------------

TEST(RetryBackoffTest, RetriesBackOffAndSpreadAcrossWorkers) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(TinyOptions());
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  service.system()->StartWorker(kJpegDistillerType);
  PlaybackEngine* client = service.AddPlaybackEngine(0x4444);
  service.sim()->RunFor(Seconds(3));  // Both workers registered and in beacons.
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_EQ(workers.size(), 2u);
  // Both distillers' CPUs are busy for longer than the fetch plus the whole
  // retry chain (kTaskRetries + 1 timeouts and their backoffs), so every
  // attempt times out and no reply lands before the FE falls back to the
  // original bytes. The request carries no deadline, so the chain runs in full.
  for (WorkerProcess* worker : workers) {
    service.system()->cluster()->RunOnCpu(worker->node(), kInvalidProcess, Seconds(40), [] {});
  }

  std::string url = BigJpegUrl(&service);
  ASSERT_FALSE(url.empty());
  TraceRecord record;
  record.user_id = "retry";
  record.url = url;
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(60));

  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  // Two timed-out attempts were retried after a backoff delay.
  EXPECT_EQ(fe->retries_backoff(), kTaskRetries);
  // Exclusion: the retry after a timeout must go to the OTHER worker, so both
  // received (and eventually completed) at least one delivered task.
  EXPECT_GE(workers[0]->completed_tasks(), 1);
  EXPECT_GE(workers[1]->completed_tasks(), 1);
  // BASE fallback: the client still got an answer — the undistilled original.
  ASSERT_EQ(client->completed(), 1);
  EXPECT_EQ(client->errors(), 0);
  auto sources = client->responses_by_source();
  EXPECT_EQ(sources["approximate"], 1);
}

// ---------- worker-side deadline shedding ----------------------------------------------

class SlowEchoWorker : public TaccWorker {
 public:
  explicit SlowEchoWorker(SimDuration cost = Seconds(5)) : cost_(cost) {}
  std::string type() const override { return "slow-echo"; }
  TaccResult Process(const TaccRequest& request) override {
    return TaccResult::Ok(request.inputs.empty() ? nullptr : request.input());
  }
  SimDuration EstimateCost(const TaccRequest&) const override { return cost_; }

 private:
  SimDuration cost_;
};

// Records task responses addressed to it.
class ResponseSink : public Process {
 public:
  ResponseSink() : Process("sink") {}
  void OnMessage(const Message& msg) override {
    if (msg.type == kMsgTaskResponse) {
      const auto& reply = static_cast<const TaskResponsePayload&>(*msg.payload);
      responses_.emplace_back(reply.task_id, reply.status);
    } else if (msg.type == kMsgCacheReply) {
      ++cache_replies_;
    }
  }
  using Process::Send;
  const std::vector<std::pair<uint64_t, Status>>& responses() const { return responses_; }
  int cache_replies() const { return cache_replies_; }

 private:
  std::vector<std::pair<uint64_t, Status>> responses_;
  int cache_replies_ = 0;
};

struct RawHarness {
  RawHarness() : san(&sim, SanConfig{}), cluster(&sim, &san) {}
  Simulator sim;
  San san;
  Cluster cluster;
};

void SendTask(ResponseSink* sink, const Endpoint& worker, uint64_t task_id,
              SimTime deadline) {
  auto payload = std::make_shared<TaskRequestPayload>();
  payload->task_id = task_id;
  payload->url = "http://example.com/x.jpg";
  payload->reply_to = sink->endpoint();
  payload->deadline = deadline;
  Message msg;
  msg.dst = worker;
  msg.type = kMsgTaskRequest;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 256;
  msg.payload = payload;
  sink->Send(std::move(msg));
}

TEST(WorkerDeadlineTest, ShedsExpiredTasksAtEnqueueAndDequeueAndRefusesInfeasible) {
  RawHarness h;
  // One single-CPU node shared by a contending worker and the worker under test:
  // the contender's 12 s CPU slice delays the test worker's service far beyond its
  // own queued-cost estimate, which is how an admitted task can still expire in
  // the queue (the dequeue-shed backstop).
  NodeId node = h.cluster.AddNode();
  auto contender_owner =
      std::make_unique<WorkerProcess>(std::make_unique<SlowEchoWorker>(Seconds(12)));
  WorkerProcess* contender = contender_owner.get();
  ASSERT_NE(h.cluster.Spawn(node, std::move(contender_owner)), kInvalidProcess);
  auto worker_owner = std::make_unique<WorkerProcess>(std::make_unique<SlowEchoWorker>());
  WorkerProcess* worker = worker_owner.get();
  ASSERT_NE(h.cluster.Spawn(node, std::move(worker_owner)), kInvalidProcess);
  auto sink_owner = std::make_unique<ResponseSink>();
  ResponseSink* sink = sink_owner.get();
  ASSERT_NE(h.cluster.Spawn(h.cluster.AddNode(), std::move(sink_owner)), kInvalidProcess);
  h.sim.RunFor(Seconds(1));

  // Task 10: pins the node's only CPU via the contender until t ~ 13 s.
  SendTask(sink, contender->endpoint(), 10, kTimeNever);
  h.sim.RunFor(Milliseconds(100));
  // Task 1: no deadline; "in service" at the worker but its 5 s CPU slice queues
  // behind the contender's, so it actually finishes at t ~ 18 s.
  SendTask(sink, worker->endpoint(), 1, kTimeNever);
  h.sim.RunFor(Milliseconds(100));
  // Task 2: feasible by the queued-cost estimate (~11.25 s needed vs a 12.2 s
  // deadline), so admission accepts it — but CPU contention pushes its dequeue to
  // t ~ 18 s, past its deadline, so the worker sheds it when the CPU frees up.
  SendTask(sink, worker->endpoint(), 2, h.sim.now() + Seconds(11));
  h.sim.RunFor(Milliseconds(100));
  // Task 3: already expired on arrival; shed before even queueing.
  SendTask(sink, worker->endpoint(), 3, h.sim.now() - Seconds(1));
  h.sim.RunFor(Milliseconds(100));
  // Task 4: not yet expired, but the queued backlog cannot possibly meet its 3 s
  // deadline — admission refuses it up front with ResourceExhausted so the front
  // end can fall back to an approximate answer while there is still time.
  SendTask(sink, worker->endpoint(), 4, h.sim.now() + Seconds(3));
  h.sim.RunFor(Seconds(30));

  ASSERT_EQ(sink->responses().size(), 5u);
  EXPECT_EQ(worker->expired_tasks(), 2);   // Task 3 at enqueue, task 2 at dequeue.
  EXPECT_EQ(worker->rejected_tasks(), 1);  // Task 4 refused by admission.
  EXPECT_EQ(worker->completed_tasks(), 1);
  EXPECT_EQ(contender->completed_tasks(), 1);
  for (const auto& [task_id, status] : sink->responses()) {
    if (task_id == 1 || task_id == 10) {
      EXPECT_TRUE(status.ok()) << "task " << task_id;
    } else if (task_id == 4) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kTimeout) << "task " << task_id;
    }
  }
}

// ---------- cache-node accounting ------------------------------------------------------

TEST(CacheAccountingTest, PutsCountAsOutstandingAndGaugesRefreshAtOpTime) {
  RawHarness h;
  NodeId node = h.cluster.AddNode();
  auto cache_owner = std::make_unique<CacheNodeProcess>(SnsConfig{}, CacheNodeConfig{});
  CacheNodeProcess* cache = cache_owner.get();
  ASSERT_NE(h.cluster.Spawn(node, std::move(cache_owner)), kInvalidProcess);
  auto sink_owner = std::make_unique<ResponseSink>();
  ResponseSink* sink = sink_owner.get();
  ASSERT_NE(h.cluster.Spawn(h.cluster.AddNode(), std::move(sink_owner)), kInvalidProcess);

  auto put = std::make_shared<CachePutPayload>();
  put->key = "k1";
  put->content = Content::Make("k1", MimeType::kJpeg, std::vector<uint8_t>(1000, 7));
  Message msg;
  msg.dst = cache->endpoint();
  msg.type = kMsgCachePut;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 1000;
  msg.payload = put;
  sink->Send(std::move(msg));

  // The put must be visible in `outstanding_` while its CPU slice runs — this is
  // what the manager's load view samples.
  bool saw_outstanding = false;
  for (int i = 0; i < 100 && !saw_outstanding; ++i) {
    h.sim.RunFor(Milliseconds(1));
    saw_outstanding = cache->outstanding_ops() > 0;
  }
  EXPECT_TRUE(saw_outstanding);

  h.sim.RunFor(Milliseconds(50));
  EXPECT_EQ(cache->outstanding_ops(), 0.0);
  EXPECT_EQ(cache->used_bytes(), 1000);
  // Gauges were refreshed when the op completed — well before the report timer
  // (and with no manager known, ReportLoad never even runs its refresh).
  std::string prefix = StrFormat("cache.n%d.", cache->node());
  EXPECT_EQ(h.cluster.metrics()->GetGauge(prefix + "used_bytes")->value(), 1000.0);
}

TEST(CacheAccountingTest, ExpiredGetsAreDroppedWithoutReply) {
  RawHarness h;
  NodeId node = h.cluster.AddNode();
  auto cache_owner = std::make_unique<CacheNodeProcess>(SnsConfig{}, CacheNodeConfig{});
  CacheNodeProcess* cache = cache_owner.get();
  ASSERT_NE(h.cluster.Spawn(node, std::move(cache_owner)), kInvalidProcess);
  auto sink_owner = std::make_unique<ResponseSink>();
  ResponseSink* sink = sink_owner.get();
  ASSERT_NE(h.cluster.Spawn(h.cluster.AddNode(), std::move(sink_owner)), kInvalidProcess);
  h.sim.RunFor(Seconds(1));

  auto get = std::make_shared<CacheGetPayload>();
  get->op_id = 1;
  get->key = "k1";
  get->reply_to = sink->endpoint();
  get->deadline = h.sim.now() - Milliseconds(1);  // Already expired.
  Message msg;
  msg.dst = cache->endpoint();
  msg.type = kMsgCacheGet;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 128;
  msg.payload = get;
  sink->Send(std::move(msg));
  h.sim.RunFor(Seconds(1));

  EXPECT_EQ(sink->cache_replies(), 0);
  std::string prefix = StrFormat("cache.n%d.", cache->node());
  EXPECT_EQ(h.cluster.metrics()->GetCounter(prefix + "expired_gets")->value(), 1);
  EXPECT_EQ(h.cluster.metrics()->GetCounter(prefix + "gets")->value(), 0);
}

}  // namespace
}  // namespace sns

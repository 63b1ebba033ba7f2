// Tests for the per-message bookkeeping path: span recording, the SAN flight
// recorder and process timers perform no heap allocation once warm, and the
// rules that make that safe hold — span text outlives the process that recorded
// it, and a process's timer list stays exact across fired, cancelled and reused
// event slots. A warmed TranSend service bounds the allocations of a whole
// request: continuations, replica chains and the per-request tables allocate
// nothing, and neither does folding an evicted trace into the run's
// statistics, so what remains is message payloads, cache keys and the client's
// own records.
//
// This file replaces the global operator new with a counting one, so every test
// here can measure the allocations of a window of work.

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/net/san.h"
#include "src/obs/critical_path.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"
#include "src/services/transend/transend.h"
#include "src/sim/simulator.h"
#include "src/workload/trace.h"

namespace {
int64_t g_new_calls = 0;
}  // namespace

// The replacements stay out of line. Once GCC 12 inlines one side into a
// caller, it pairs malloc() or free() with the other side's operator and
// raises -Werror=mismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sns {
namespace {

// Heap allocations a warm request may make, end to end (client, SAN, front
// end, profile DB, cache node, workers, observability). Measured at 12.9 when
// this bound was set, down from 30.3 with std::function continuations, tree
// rings and node-based request tables; each remaining one is a message
// payload, a copied URL or key, or a flight-recorder or time-series record.
constexpr double kRequestAllocationBudget = 16.0;

// A process whose timer and span entry points the tests can call directly.
class BookkeepingProcess : public Process {
 public:
  explicit BookkeepingProcess(std::string name) : Process(std::move(name)) {}

  using Process::After;
  using Process::CancelTimer;
  using Process::RecordSpan;
  using Process::StartTrace;
};

class ProcessBookkeepingTest : public ::testing::Test {
 protected:
  ProcessBookkeepingTest() : san_(&sim_, SanConfig{}), cluster_(&sim_, &san_) {
    node_ = cluster_.AddNode();
  }

  BookkeepingProcess* Spawn(const std::string& name, ProcessId* pid) {
    *pid = cluster_.Spawn(node_, std::make_unique<BookkeepingProcess>(name));
    return static_cast<BookkeepingProcess*>(cluster_.Find(*pid));
  }

  Simulator sim_;
  San san_;
  Cluster cluster_;
  NodeId node_ = -1;
};

// Records one trace of `spans` spans, all children of the root.
void RecordTrace(TraceCollector* collector, std::string_view component, int spans) {
  TraceContext root = collector->StartTrace();
  for (int i = 0; i < spans; ++i) {
    TraceContext ctx = i == 0 ? root : collector->ChildOf(root);
    SpanRecord span;
    span.trace_id = ctx.trace_id;
    span.span_id = ctx.span_id;
    span.parent_span_id = ctx.parent_span_id;
    span.component = component;
    span.operation = i == 0 ? "fe.request" : "cache.get";
    span.node = 0;
    span.start = i;
    span.end = i + 1;
    span.outcome = "ok";
    collector->Record(span);
  }
}

TEST(HotPathAllocTest, FullCollectorRecordsTracesWithoutAllocating) {
  constexpr size_t kMaxTraces = 64;
  TraceCollector collector(kMaxTraces);
  std::string_view component = collector.Intern("front-end-0");
  // Past retention several times over, so eviction has recycled slots and the
  // eviction order list has reached its steady size.
  for (size_t i = 0; i < 3 * kMaxTraces; ++i) {
    RecordTrace(&collector, component, 10);
  }
  int64_t before = g_new_calls;
  for (int i = 0; i < 1000; ++i) {
    RecordTrace(&collector, component, 10);
  }
  EXPECT_EQ(g_new_calls - before, 0);
  // Each evicted trace was folded on the way out (inside the window above),
  // and export adds the retained ones: the summary counts every trace once.
  EXPECT_EQ(CriticalPathSummary::FromCollector(collector).request_count(),
            static_cast<int64_t>(3 * kMaxTraces + 1000));

  EXPECT_EQ(collector.trace_count(), kMaxTraces);
  EXPECT_EQ(collector.span_count(), kMaxTraces * 10);
  std::vector<uint64_t> ids = collector.TraceIds();
  ASSERT_EQ(ids.size(), kMaxTraces);
  uint64_t newest = collector.traces_started();
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], newest - kMaxTraces + 1 + i);  // The newest traces, oldest first.
    EXPECT_EQ(collector.Trace(ids[i]).size(), 10u);
  }
}

TEST_F(ProcessBookkeepingTest, FiredTimersAllocateNothingOnceCompacted) {
  ProcessId pid;
  BookkeepingProcess* p = Spawn("timer-owner", &pid);
  int fired = 0;
  // The first cycles grow the timer list and compact it once.
  for (int i = 0; i < 4; ++i) {
    p->After(Milliseconds(1), [p, &fired] { fired += p->running() ? 1 : 0; });
    sim_.RunFor(Milliseconds(2));
  }
  int64_t before = g_new_calls;
  for (int i = 0; i < 10000; ++i) {
    // A 16-byte capture: small enough for std::function's inline buffer.
    p->After(Milliseconds(1), [p, &fired] { fired += p->running() ? 1 : 0; });
    sim_.RunFor(Milliseconds(2));
  }
  EXPECT_EQ(g_new_calls - before, 0);
  EXPECT_EQ(fired, 10004);
}

TEST(HotPathAllocTest, FlightRecorderStoresDropReasonsWithoutCopies) {
  Simulator sim;
  San san(&sim, SanConfig{});
  EventLog log;
  san.set_event_log(&log);
  san.AddNode(0);
  san.AddNode(1);
  san.SetNodeUp(0, false);  // Every send from node 0 logs a send and an "unreachable" drop.
  Message msg;
  msg.src = Endpoint{0, 1};
  msg.dst = Endpoint{1, 1};
  msg.trace.trace_id = 7;
  msg.trace.span_id = 9;
  constexpr int kSends = 1000;
  int64_t before = g_new_calls;
  for (int i = 0; i < kSends; ++i) {
    san.Send(msg);
  }
  int64_t allocations = g_new_calls - before;
  // Only the deque's blocks allocate, and a block holds at least four events.
  EXPECT_LE(allocations, 2 * kSends / 4);

  ASSERT_EQ(log.messages().size(), 2u * kSends);
  for (const SanEvent& ev : log.messages()) {
    if (ev.kind == SanEvent::Kind::kDrop) {
      EXPECT_STREQ(ev.detail, "unreachable");
    } else {
      EXPECT_STREQ(ev.detail, "");
    }
  }
}

TEST_F(ProcessBookkeepingTest, TimersAndCpuWorkWithLargeCapturesAllocateNothing) {
  ProcessId pid;
  BookkeepingProcess* p = Spawn("capture-owner", &pid);
  // 96 bytes of capture: past std::function's inline buffer, inside SimTask's.
  struct Payload {
    int64_t words[12] = {};
  };
  Payload payload;
  int64_t sum = 0;
  for (int i = 0; i < 4; ++i) {  // Grow the timer list once.
    p->After(Milliseconds(1), [payload, &sum] { sum += payload.words[0]; });
    sim_.RunFor(Milliseconds(2));
  }
  int64_t before = g_new_calls;
  for (int i = 0; i < 1000; ++i) {
    payload.words[11] = i;
    p->After(Milliseconds(1), [payload, &sum] { sum += payload.words[11]; });
    cluster_.RunOnCpu(node_, pid, Microseconds(10),
                      [payload, &sum] { sum += payload.words[11]; });
    sim_.RunFor(Milliseconds(2));
  }
  EXPECT_EQ(g_new_calls - before, 0);
  EXPECT_EQ(sum, 2 * (999 * 1000 / 2));
}

TEST(RequestPathAllocTest, WarmTranSendRequestsStayWithinBudget) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe.url_count = 200;
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(7);
  service.sim()->RunFor(Seconds(3));
  client->StartConstantRate(50, UniformUrls(service.universe(), 11, "u1"));
  // Warm up: distillers spawned, the cache holds the universe's variants,
  // every per-request table has reached its peak size, and the trace
  // collector holds its 4096 traces, so it recycles rather than grows.
  service.sim()->RunFor(Seconds(100));

  int64_t sent_before = client->sent();
  int64_t completed_before = client->completed();
  int64_t before = g_new_calls;
  service.sim()->RunFor(Seconds(30));
  int64_t allocations = g_new_calls - before;
  int64_t requests = client->sent() - sent_before;
  ASSERT_GE(requests, 1490);
  EXPECT_GE(client->completed() - completed_before, requests - 50);
  double per_request = static_cast<double>(allocations) / static_cast<double>(requests);
  EXPECT_LE(per_request, kRequestAllocationBudget) << allocations << " allocations for "
                                                   << requests << " requests";
}

TEST_F(ProcessBookkeepingTest, SpanComponentOutlivesCrashedProcess) {
  // Longer than any small-string buffer, so the process's own copy is on the heap.
  const std::string name = "distiller-with-a-rather-long-process-name-0";
  ProcessId pid;
  BookkeepingProcess* p = Spawn(name, &pid);
  TraceContext ctx = p->StartTrace();
  p->RecordSpan(ctx, "worker.task", 0, "ok");
  cluster_.Crash(pid);
  ASSERT_EQ(cluster_.Find(pid), nullptr);

  std::vector<SpanRecord> spans = cluster_.tracer()->Trace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].component, name);
  std::string json = cluster_.tracer()->ToJson();
  EXPECT_NE(json.find("\"component\":\"" + name + "\""), std::string::npos) << json;
}

TEST(HotPathAllocTest, InternReturnsOneCopyPerName) {
  TraceCollector collector;
  std::string_view a = collector.Intern(std::string("cache-node-3"));
  std::string_view b = collector.Intern("cache-node-3");
  std::string_view c = collector.Intern("cache-node-4");
  EXPECT_EQ(a, "cache-node-3");
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(c, "cache-node-4");
  EXPECT_NE(a.data(), c.data());
}

TEST(SimulatorIsPendingTest, TracksFireCancelAndSlotReuse) {
  Simulator sim;
  EXPECT_FALSE(sim.IsPending(kInvalidEventId));
  EXPECT_FALSE(sim.IsPending(EventId{12345}));  // A slot never materialized.

  EventId fires = sim.Schedule(Milliseconds(1), [] {});
  EventId cancelled = sim.Schedule(Milliseconds(1), [] {});
  EventId far = sim.Schedule(Seconds(100), [] {});  // Beyond the wheel: overflow heap.
  EXPECT_TRUE(sim.IsPending(fires));
  EXPECT_TRUE(sim.IsPending(cancelled));
  EXPECT_TRUE(sim.IsPending(far));

  ASSERT_TRUE(sim.Cancel(cancelled));
  EXPECT_FALSE(sim.IsPending(cancelled));
  // The freed slot is reused at once; the old id stays dead, the new one is live.
  EventId reused = sim.Schedule(Milliseconds(1), [] {});
  EXPECT_EQ(reused & 0xFFFFFFFFull, cancelled & 0xFFFFFFFFull);
  EXPECT_FALSE(sim.IsPending(cancelled));
  EXPECT_TRUE(sim.IsPending(reused));

  sim.RunFor(Milliseconds(2));
  EXPECT_FALSE(sim.IsPending(fires));
  EXPECT_FALSE(sim.IsPending(reused));
  EXPECT_TRUE(sim.IsPending(far));
  sim.Run();
  EXPECT_FALSE(sim.IsPending(far));
}

TEST(SimulatorIsPendingTest, SameTimestampEventsAwaitingFire) {
  Simulator sim;
  EventId second = kInvalidEventId;
  EventId self = kInvalidEventId;
  bool second_ran = false;
  std::vector<bool> seen;
  self = sim.Schedule(Milliseconds(1), [&] {
    seen.push_back(sim.IsPending(self));    // Firing: no longer pending.
    seen.push_back(sim.IsPending(second));  // Extracted for firing, not yet run.
    sim.Cancel(second);
    seen.push_back(sim.IsPending(second));  // Cancelled while awaiting fire.
  });
  second = sim.Schedule(Milliseconds(1), [&] { second_ran = true; });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true, false}));
  EXPECT_FALSE(second_ran);
  EXPECT_FALSE(sim.IsPending(second));
}

TEST_F(ProcessBookkeepingTest, CrashCancelsEveryPendingTimerAfterManyFired) {
  ProcessId pid;
  BookkeepingProcess* p = Spawn("long-lived", &pid);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    p->After(Microseconds(10), [&fired] { ++fired; });
    if (i % 7 == 0) {
      p->CancelTimer(p->After(Microseconds(5), [&fired] { ++fired; }));
    }
    sim_.RunFor(Microseconds(20));
  }
  ASSERT_EQ(fired, 10000);
  size_t idle = sim_.pending_events();

  int late = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    // Near and far timers: wheel levels 0-2 and the overflow heap.
    SimDuration delay = i % 2 == 0 ? Milliseconds(i + 1) : Seconds(40 * (i + 1));
    ids.push_back(p->After(delay, [&late] { ++late; }));
  }
  EXPECT_EQ(sim_.pending_events(), idle + 50);
  cluster_.Crash(pid);
  EXPECT_EQ(sim_.pending_events(), idle);
  for (EventId id : ids) {
    EXPECT_FALSE(sim_.IsPending(id));
  }
  sim_.RunFor(Seconds(3000));
  EXPECT_EQ(late, 0);
}

}  // namespace
}  // namespace sns

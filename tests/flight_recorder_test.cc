// Flight recorder tests: time-series sampling, critical-path decomposition,
// span parentage across retries, the Perfetto timeline rendered from a run
// artifact, and the monitor-snapshot metric audit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/failure_injector.h"
#include "src/obs/artifact.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "tools/json_reader.h"
#include "tools/render_trace.h"

namespace sns {
namespace {

// All-JPEG universe with distilled-variant caching off: every request pays the
// distiller, so traces exercise the whole worker path (same idiom as the fault
// tests and the chaos harness).
TranSendOptions DistillHeavyOptions() {
  TranSendOptions options = RedistillOptions(20);
  options.topology.worker_pool_nodes = 2;
  options.topology.front_ends = 1;
  return options;
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

TEST(TimeSeriesRecorderTest, SamplesCountersGaugesHistogramsAndProbes) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("fe.requests");
  Gauge* queue = registry.GetGauge("fe.queue");
  Histogram* latency = registry.GetHistogram("fe.latency", 0.0, 10.0, 10);

  TimeSeriesRecorder recorder(&registry, Milliseconds(100));
  double probe_value = 0.25;
  recorder.AddProbe("node.0.cpu_util", [&probe_value] { return probe_value; });

  requests->Increment(3);
  queue->Set(7.0);
  latency->Add(2.0);
  recorder.SampleAt(Milliseconds(100));

  requests->Increment(2);
  queue->Set(4.0);
  latency->Add(4.0);
  probe_value = 0.75;
  recorder.SampleAt(Milliseconds(200));

  const TimeSeriesRecorder::Series* c = recorder.Find("fe.requests");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->size(), 2u);
  EXPECT_EQ(recorder.TimeOf(*c, 0), Milliseconds(100));
  // Counters sample cumulative values.
  EXPECT_EQ(c->Values(), (std::vector<double>{3.0, 5.0}));

  const TimeSeriesRecorder::Series* g = recorder.Find("fe.queue");
  ASSERT_NE(g, nullptr);
  // Gauges sample instantaneous values.
  EXPECT_EQ(g->Values(), (std::vector<double>{7.0, 4.0}));

  const TimeSeriesRecorder::Series* hc = recorder.Find("fe.latency.count");
  const TimeSeriesRecorder::Series* hm = recorder.Find("fe.latency.mean");
  ASSERT_NE(hc, nullptr);
  ASSERT_NE(hm, nullptr);
  EXPECT_DOUBLE_EQ(hc->Values()[1], 2.0);
  EXPECT_DOUBLE_EQ(hm->Values()[1], 3.0);

  const TimeSeriesRecorder::Series* p = recorder.Find("node.0.cpu_util");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->Values(), (std::vector<double>{0.25, 0.75}));

  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"fe.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"node.0.cpu_util\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_ns\""), std::string::npos);
}

TEST(TimeSeriesRecorderTest, InstrumentsAndProbesAddedLaterJoinTheSampling) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Increment();
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  recorder.SampleAt(Milliseconds(10));

  // Registered after the first tick, sorting before and after the old one.
  registry.GetCounter("a.counter")->Increment(2);
  registry.GetGauge("c.gauge")->Set(3.0);
  registry.GetHistogram("d.hist", 0.0, 10.0, 10)->Add(4.0);
  recorder.AddProbe("e.probe", [] { return 5.0; });
  recorder.SampleAt(Milliseconds(20));
  // Replacing a probe keeps its series and samples the new function.
  recorder.AddProbe("e.probe", [] { return 6.0; });
  recorder.SampleAt(Milliseconds(30));

  const std::map<std::string, std::vector<double>> want = {
      {"a.counter", {2, 2}},  {"b.counter", {1, 1, 1}}, {"c.gauge", {3, 3}},
      {"d.hist.count", {1, 1}}, {"d.hist.mean", {4, 4}}, {"e.probe", {5, 6}},
  };
  EXPECT_EQ(recorder.series_count(), want.size());
  // One clock for every series; a late joiner's values are its last entries.
  ASSERT_EQ(recorder.times().size(), 3u);
  for (const auto& [name, values] : want) {
    const TimeSeriesRecorder::Series* series = recorder.Find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_EQ(series->Values(), values) << name;
    SimTime joined = values.size() == 3 ? Milliseconds(10) : Milliseconds(20);
    EXPECT_EQ(recorder.TimeOf(*series, 0), joined) << name;
    EXPECT_EQ(recorder.TimeOf(*series, series->size() - 1), Milliseconds(30)) << name;
  }
}

TEST(TimeSeriesRecorderTest, RingBuffersAreBounded) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  for (int i = 1; i <= 10; ++i) {
    c->Increment();
    recorder.SampleAt(Milliseconds(10 * i));
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("c");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 4u);  // Oldest samples evicted.
  ASSERT_EQ(recorder.times().size(), 4u);  // From the clock too.
  EXPECT_EQ(recorder.times().front(), Milliseconds(70));
  EXPECT_EQ(recorder.TimeOf(*series, 0), Milliseconds(70));
  EXPECT_EQ(series->Values(), (std::vector<double>{7, 8, 9, 10}));
  EXPECT_EQ(recorder.samples_taken(), 10);
}

TEST(TimeSeriesRecorderTest, RepeatedNameKeepsOneValuePerTick) {
  // A counter "x.count" and a histogram "x" both sample into "x.count". The
  // series must still get one value per tick, or it would outgrow the clock.
  MetricsRegistry registry;
  registry.GetCounter("x.count")->Increment(7);
  registry.GetHistogram("x", 0.0, 10.0, 10)->Add(1.0);
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  recorder.SampleAt(Milliseconds(10));
  recorder.SampleAt(Milliseconds(20));
  const TimeSeriesRecorder::Series* series = recorder.Find("x.count");
  ASSERT_NE(series, nullptr);
  // Counters are sampled first, so the counter's value is the one kept.
  EXPECT_EQ(series->Values(), (std::vector<double>{7, 7}));
  ASSERT_NE(recorder.Find("x.mean"), nullptr);
  EXPECT_EQ(recorder.Find("x.mean")->size(), 2u);
}

TEST(TimeSeriesRecorderTest, RepeatedValuesExtendOneRun) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  for (double v : {1.0, 1.0, 1.0, 2.0, 1.0}) {
    g->Set(v);
    recorder.SampleAt(Milliseconds(10 * (recorder.samples_taken() + 1)));
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("g");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->runs().size(), 3u);
  EXPECT_EQ(series->runs()[0].count, 3);
  EXPECT_EQ(series->runs()[1].count, 1);
  EXPECT_EQ(series->size(), 5u);
  EXPECT_EQ(series->Values(), (std::vector<double>{1, 1, 1, 2, 1}));
}

TEST(TimeSeriesRecorderTest, EvictionShortensTheFirstRunAndDropsItAtZero) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  auto sample = [&](double v) {
    g->Set(v);
    recorder.SampleAt(Milliseconds(10 * (recorder.samples_taken() + 1)));
  };
  for (double v : {1.0, 1.0, 1.0, 2.0, 2.0}) {
    sample(v);
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("g");
  ASSERT_NE(series, nullptr);
  // Five ticks into a window of four: the first run lost one tick.
  ASSERT_EQ(series->runs().size(), 2u);
  EXPECT_EQ(series->runs()[0].count, 2);
  EXPECT_EQ(series->Values(), (std::vector<double>{1, 1, 2, 2}));
  EXPECT_EQ(recorder.TimeOf(*series, 0), Milliseconds(20));
  sample(2.0);
  sample(2.0);
  // The first run reached zero and is gone; the window is one run of four.
  ASSERT_EQ(series->runs().size(), 1u);
  EXPECT_EQ(series->runs()[0].count, 4);
  EXPECT_EQ(series->size(), 4u);
  EXPECT_EQ(recorder.TimeOf(*series, 0), Milliseconds(40));
}

TEST(TimeSeriesRecorderTest, RunsCompareBitsSoSignedZerosStayApart) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  for (double v : {0.0, 0.0, -0.0, -0.0, 0.0}) {
    g->Set(v);
    recorder.SampleAt(Milliseconds(10 * (recorder.samples_taken() + 1)));
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("g");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->runs().size(), 3u);
  EXPECT_FALSE(std::signbit(series->runs()[0].value));
  EXPECT_TRUE(std::signbit(series->runs()[1].value));
  EXPECT_FALSE(std::signbit(series->runs()[2].value));
  // "0" and "-0" print differently, so the export keeps them apart too.
  EXPECT_NE(recorder.ToJson().find("\"g\":{\"v\":[[0,2],[-0,2],0]}"), std::string::npos)
      << recorder.ToJson();
}

TEST(TimeSeriesRecorderTest, NaNsKeepTheirBits) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | 1);
  for (double v : {nan, nan, 1.0, other_nan, nan}) {
    g->Set(v);
    recorder.SampleAt(Milliseconds(10 * (recorder.samples_taken() + 1)));
  }
  const TimeSeriesRecorder::Series* series = recorder.Find("g");
  ASSERT_NE(series, nullptr);
  // A NaN never equals itself, but the same bits still extend a run; a NaN
  // with another payload starts a new one.
  ASSERT_EQ(series->runs().size(), 4u);
  EXPECT_EQ(series->runs()[0].count, 2);
  std::vector<double> values = series->Values();
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(std::bit_cast<uint64_t>(values[1]), std::bit_cast<uint64_t>(nan));
  EXPECT_EQ(values[2], 1.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(values[3]), std::bit_cast<uint64_t>(other_nan));
  EXPECT_EQ(std::bit_cast<uint64_t>(values[4]), std::bit_cast<uint64_t>(nan));
}

TEST(TimeSeriesRecorderTest, LateJoinerStaysEndAlignedThroughEviction) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Increment();
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  for (int i = 1; i <= 8; ++i) {
    if (i == 3) {
      registry.GetGauge("late")->Set(5.0);  // Joins on tick 3 and never changes.
    }
    recorder.SampleAt(Milliseconds(10 * i));
    const TimeSeriesRecorder::Series* late = recorder.Find("late");
    if (i < 3) {
      EXPECT_EQ(late, nullptr);
      continue;
    }
    ASSERT_NE(late, nullptr);
    ASSERT_EQ(late->runs().size(), 1u);
    EXPECT_EQ(late->size(), std::min<size_t>(i - 2, 4));
    EXPECT_EQ(recorder.TimeOf(*late, 0), Milliseconds(10 * std::max(3, i - 3)));
    EXPECT_EQ(recorder.TimeOf(*late, late->size() - 1), Milliseconds(10 * i));
  }
}

TEST(TimeSeriesRecorderTest, ToJsonWritesRunsAndAStepEncodedClock) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10));
  // 1 + 1e-9 prints as "1" under %.6g, so its run merges with the 1s beside it.
  const double values[] = {1, 1, 1 + 1e-9, 2.5, 3, 3};
  const SimTime ticks[] = {10, 20, 30, 40, 60, 80};
  for (int i = 0; i < 6; ++i) {
    g->Set(values[i]);
    recorder.SampleAt(Milliseconds(ticks[i]));
  }
  EXPECT_EQ(recorder.Find("g")->runs().size(), 4u);
  EXPECT_EQ(recorder.ToJson(),
            "{\"interval_ns\":10000000,\"samples\":6,"
            "\"t_ns\":[10000000,[10000000,3],[20000000,2]],"
            "\"series\":{\"g\":{\"v\":[[1,3],2.5,[3,2]]}}}");
}

// The (time, value) pairs of every series in a ToJson() document, each value
// paired with its entry of the shared clock (series are end-aligned with it).
using TimedValues = std::map<std::string, std::vector<std::pair<SimTime, double>>>;

// Decodes the run-encoded clock and series of a ToJson() document.
bool DecodeTimeSeries(const std::string& json, TimedValues* out) {
  JsonReader reader(json);
  std::vector<SimTime> clock;
  bool ok = reader.Object([&](const std::string& key) {
    if (key == "t_ns") {
      return reader.Array([&] {
        double t = 0;
        double count = 1;
        if (clock.empty()) {  // The first tick; steps follow.
          if (!reader.Number(&t)) return false;
          clock.push_back(static_cast<SimTime>(t));
          return true;
        }
        if (!reader.Run(&t, &count)) return false;
        for (double k = 0; k < count; ++k) {
          clock.push_back(clock.back() + static_cast<SimTime>(t));
        }
        return true;
      });
    }
    if (key != "series") {
      return reader.Skip();
    }
    return reader.Object([&](const std::string& name) {
      return reader.Object([&](const std::string& field) {
        if (field != "v") {
          return reader.Fail("unexpected series field " + field);
        }
        std::vector<std::pair<SimTime, double>>& pairs = (*out)[name];
        return reader.Array([&] {
          double v = 0;
          double count = 0;
          if (!reader.Run(&v, &count)) return false;
          // Times are filled in from the clock below.
          pairs.insert(pairs.end(), static_cast<size_t>(count), {0, v});
          return true;
        });
      });
    });
  });
  if (!ok || !reader.AtEnd()) {
    ADD_FAILURE() << "ToJson() does not decode: " << reader.error();
    return false;
  }
  for (auto& [name, pairs] : *out) {
    if (pairs.size() > clock.size()) {
      ADD_FAILURE() << name << " has more values than the clock has times";
      return false;
    }
    size_t offset = clock.size() - pairs.size();
    for (size_t i = 0; i < pairs.size(); ++i) {
      pairs[i].first = clock[offset + i];
    }
  }
  return true;
}

TEST(TimeSeriesRecorderTest, ToJsonRoundTripsEveryTimedValue) {
  MetricsRegistry registry;
  Counter* ticks = registry.GetCounter("a.ticks");
  TimeSeriesRecorder recorder(&registry, Milliseconds(10), /*max_samples=*/4);
  TimedValues want;  // Built from the ticks below, not read off the recorder.
  double late = 0;
  for (int i = 1; i <= 10; ++i) {
    ticks->Increment();
    if (i == 4) {
      registry.GetGauge("b.gauge");  // Joins on tick 4, then evicts like "a".
    }
    if (i == 9) {
      recorder.AddProbe("c.late", [&late] { return late; });  // Joins on tick 9.
    }
    registry.GetGauge("b.gauge")->Set(i * 1.5);
    registry.GetGauge("d.steps")->Set(i / 3);  // Runs of three.
    late = -0.25 * i;
    SimTime now = Milliseconds(10 * i + (i >= 8 ? 5 : 0));  // One longer step.
    recorder.SampleAt(now);
    want["a.ticks"].emplace_back(now, i);
    if (i >= 4) want["b.gauge"].emplace_back(now, i * 1.5);
    if (i >= 9) want["c.late"].emplace_back(now, late);
    want["d.steps"].emplace_back(now, i / 3);
  }
  for (auto& [name, pairs] : want) {  // The ring keeps the last 4 ticks.
    if (pairs.size() > 4) pairs.erase(pairs.begin(), pairs.end() - 4);
  }

  // The accessor pairs each value with its tick...
  TimedValues accessed;
  for (const auto& [name, pairs] : want) {
    const TimeSeriesRecorder::Series* s = recorder.Find(name);
    ASSERT_NE(s, nullptr) << name;
    std::vector<double> values = s->Values();
    for (size_t i = 0; i < values.size(); ++i) {
      accessed[name].emplace_back(recorder.TimeOf(*s, i), values[i]);
    }
  }
  EXPECT_EQ(accessed, want);
  // ...and so does the exported document, which writes the clock once.
  std::string json = recorder.ToJson();
  TimedValues decoded;
  ASSERT_TRUE(DecodeTimeSeries(json, &decoded));
  EXPECT_EQ(decoded, want);
  EXPECT_EQ(json.find("\"t_ns\""), json.rfind("\"t_ns\""));
  EXPECT_LT(json.capacity() - json.size(), 16u);
}

// ---------------------------------------------------------------------------
// Critical-path analyzer (hand-built span tree, exact arithmetic)
// ---------------------------------------------------------------------------

SpanRecord MakeSpan(uint64_t span, uint64_t parent, std::string_view op,
                    SimTime start, SimTime end) {
  SpanRecord record;
  record.trace_id = 1;
  record.span_id = span;
  record.parent_span_id = parent;
  record.operation = op;
  record.start = start;
  record.end = end;
  record.outcome = "ok";
  return record;
}

TEST(CriticalPathTest, DecomposesHandBuiltTreeExactly) {
  // client.request [0,1000]
  //   fe.queue_wait [100,200]
  //   fe.request [200,900]
  //     fe.task_attempt [300,800]
  //       worker.task [400,700]
  //         worker.queue_wait [400,500]
  //         worker.service [500,700]
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, 1000));
  spans.push_back(MakeSpan(2, 1, "fe.queue_wait", 100, 200));
  spans.push_back(MakeSpan(3, 1, "fe.request", 200, 900));
  spans.push_back(MakeSpan(4, 3, "fe.task_attempt", 300, 800));
  spans.push_back(MakeSpan(5, 4, "worker.task", 400, 700));
  spans.push_back(MakeSpan(6, 5, "worker.queue_wait", 400, 500));
  spans.push_back(MakeSpan(7, 5, "worker.service", 500, 700));

  auto path = AnalyzeTrace(spans);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->total, 1000);
  EXPECT_EQ(path->root_outcome, "ok");
  // Gaps not covered by a child charge to the enclosing span's stage:
  //   client gaps [0,100]+[900,1000] and attempt gaps [300,400]+[700,800]
  //   are all san_transit; fe.request's own gaps [200,300]+[800,900] are
  //   fe_processing.
  EXPECT_EQ(path->stages.at("san_transit"), 400);
  EXPECT_EQ(path->stages.at("fe_accept_queue_wait"), 100);
  EXPECT_EQ(path->stages.at("fe_processing"), 200);
  EXPECT_EQ(path->stages.at("worker_queue_wait"), 100);
  EXPECT_EQ(path->stages.at("worker_service"), 200);
  EXPECT_EQ(path->StageSum(), path->total);  // Exact, not just within 1%.
}

TEST(CriticalPathTest, ChildrenClipToParentAndRootlessTracesAreSkipped) {
  // A child that overhangs its parent's window must be clipped, keeping the
  // stage sum exact.
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, 100));
  spans.push_back(MakeSpan(2, 1, "worker.service", 50, 250));  // Overhangs root.
  auto path = AnalyzeTrace(spans);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->stages.at("worker_service"), 50);
  EXPECT_EQ(path->StageSum(), path->total);

  // All spans parented on an unrecorded span: no root, no decomposition.
  std::vector<SpanRecord> orphans;
  orphans.push_back(MakeSpan(5, 4, "worker.service", 0, 10));
  EXPECT_FALSE(AnalyzeTrace(orphans).has_value());
}

TEST(CriticalPathTest, SummaryAccumulatesAndRenders) {
  CriticalPathSummary summary;
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 0, "client.request", 0, Milliseconds(10)));
  spans.push_back(MakeSpan(2, 1, "worker.service", 0, Milliseconds(4)));
  TraceAnalyzer analyzer;
  ASSERT_TRUE(analyzer.Analyze(spans));
  summary.Add(analyzer);
  EXPECT_EQ(summary.request_count(), 1);
  std::string table = summary.RenderTable();
  EXPECT_NE(table.find("worker_service"), std::string::npos);
  EXPECT_NE(table.find("san_transit"), std::string::npos);
  std::string json = summary.ToJson();
  EXPECT_NE(json.find("\"worker_service\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span parentage across retry/backoff (integration)
// ---------------------------------------------------------------------------

TEST(FlightRecorderIntegrationTest, RetriedTaskYieldsSiblingAttemptSubtrees) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xF1D0);

  client->StartConstantRate(20, UniformUrls(service.universe(), 0xF1D0, "retry"));
  service.sim()->RunFor(Seconds(15));

  // Crash a live distiller's node mid-run: its in-flight tasks fail or time
  // out at the FE, which backs off and retries on a surviving worker.
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  service.system()->cluster()->CrashNode(workers[0]->node());
  service.sim()->RunFor(Seconds(30));
  client->StopLoad();
  service.sim()->RunFor(Seconds(10));

  // Find a trace where a task was attempted at least twice with a backoff span.
  TraceCollector* tracer = service.system()->tracer();
  bool found = false;
  for (uint64_t trace_id : tracer->TraceIds()) {
    std::vector<SpanRecord> spans = tracer->Trace(trace_id);
    std::vector<const SpanRecord*> attempts;
    bool has_backoff = false;
    int roots = 0;
    for (const SpanRecord& span : spans) {
      if (span.operation == "fe.task_attempt") {
        attempts.push_back(&span);
      }
      if (span.operation == "fe.retry_backoff") {
        has_backoff = true;
      }
      if (span.parent_span_id == 0) {
        ++roots;
        EXPECT_EQ(span.operation, "client.request");
      }
    }
    if (attempts.size() < 2 || !has_backoff) {
      continue;
    }
    found = true;
    // One root: the client-observed request.
    EXPECT_EQ(roots, 1);
    // Attempts are siblings: distinct spans, one shared parent, disjoint in
    // time (the second attempt starts after the first ended).
    EXPECT_NE(attempts[0]->span_id, attempts[1]->span_id);
    EXPECT_EQ(attempts[0]->parent_span_id, attempts[1]->parent_span_id);
    std::vector<const SpanRecord*> ordered = attempts;
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord* a, const SpanRecord* b) { return a->start < b->start; });
    EXPECT_GE(ordered[1]->start, ordered[0]->end);

    // The analyzer attributes the inter-attempt gap to retry_backoff_idle and
    // the decomposition stays exact.
    auto path = AnalyzeTrace(spans);
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->stages["retry_backoff_idle"], 0);
    EXPECT_EQ(path->StageSum(), path->total);
    break;
  }
  EXPECT_TRUE(found) << "no retained trace had a retried task with backoff";
}

// A task timeout shorter than the distiller's service time: every attempt
// times out and its reply lands during the retry backoff, where the FE still
// accepts it. The attempt's span must be recorded once, as the timeout.
TEST(FlightRecorderIntegrationTest, ReplyDuringBackoffDoesNotRecordTheAttemptTwice) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DistillHeavyOptions();
  options.sns.task_timeout = Milliseconds(30);
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xD0B1);
  client->StartConstantRate(10, UniformUrls(service.universe(), 0xD0B1, "late"));
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  int timed_out = 0;
  int answered_late = 0;  // Traces whose only attempts timed out but whose root is ok.
  service.system()->tracer()->ForEachTrace(
      [&](uint64_t trace_id, const std::vector<const SpanRecord*>& spans) {
        std::set<uint64_t> ids;
        bool all_timed_out = true;
        bool root_ok = false;
        for (const SpanRecord* span : spans) {
          EXPECT_TRUE(ids.insert(span->span_id).second)
              << "trace " << trace_id << " records span " << span->span_id << " twice";
          if (span->operation == "fe.task_attempt") {
            all_timed_out &= span->outcome == "timeout";
            timed_out += span->outcome == "timeout";
          }
          root_ok |= span->parent_span_id == 0 && span->outcome == "ok";
        }
        answered_late += all_timed_out && root_ok;
      });
  EXPECT_GT(timed_out, 0);
  EXPECT_GT(answered_late, 0) << "no reply landed during a retry backoff";
}

// The per-node CPU series is a per-interval share: in [0, 1] on every tick,
// and 0 on a crashed node from the tick after its crash on.
TEST(FlightRecorderIntegrationTest, NodeCpuUtilIsAPerIntervalShare) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xC9B0);
  client->StartConstantRate(20, UniformUrls(service.universe(), 0xC9B0, "cpu"));
  service.sim()->RunFor(Seconds(15));
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  NodeId crashed = workers[0]->node();
  SimTime crash_at = service.sim()->now();
  service.system()->cluster()->CrashNode(crashed);
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  const TimeSeriesRecorder& recorder = *service.system()->recorder();
  ASSERT_NE(recorder.Find(StrFormat("node.%d.cpu_util", crashed)), nullptr);
  double busiest = 0;
  for (NodeId node : service.system()->cluster()->AllNodes()) {
    std::string name = StrFormat("node.%d.cpu_util", node);
    const TimeSeriesRecorder::Series* series = recorder.Find(name);
    if (series == nullptr) {
      continue;  // A client node: clients get no node probes.
    }
    std::vector<double> values = series->Values();
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_GE(values[i], 0.0) << name << " tick " << i;
      EXPECT_LE(values[i], 1.0) << name << " tick " << i;
      busiest = std::max(busiest, values[i]);
      if (node == crashed && recorder.TimeOf(*series, i) > crash_at + recorder.interval()) {
        EXPECT_EQ(values[i], 0.0) << name << " after the crash, tick " << i;
      }
    }
  }
  EXPECT_GT(busiest, 0.0);
}

// The membership view that forms in Start() is bootstrap, not a fault; the
// first view of any later vantage (a manager relaunched elsewhere) is one.
TEST(FlightRecorderIntegrationTest, BootstrapMembershipIsNotAFault) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  service.sim()->RunFor(Seconds(5));
  SnsSystem* system = service.system();
  for (const FaultInstant& fault : system->event_log()->faults()) {
    EXPECT_GT(fault.at, 0) << fault.what;
  }
  // The bootstrap view stays in the transition log.
  ASSERT_FALSE(system->membership()->transitions().empty());
  EXPECT_NE(system->membership()->transitions()[0].find("regroup#1 "), std::string::npos);

  NodeId vantage = system->cluster()->AllNodes().back();
  int64_t before = system->event_log()->faults_recorded();
  system->membership()->Regroup(vantage, service.sim()->now());
  ASSERT_EQ(system->event_log()->faults_recorded(), before + 1);
  const FaultInstant& fault = system->event_log()->faults().back();
  EXPECT_EQ(fault.at, service.sim()->now());
  EXPECT_NE(fault.what.find(StrFormat(" node=%d ", vantage)), std::string::npos) << fault.what;
}

// ---------------------------------------------------------------------------
// Perfetto timeline rendered from the run artifact (integration)
// ---------------------------------------------------------------------------

// Writes the run artifact of `system` as a bench does and renders it with
// tools/render_trace.h.
TraceRenderer RenderRunArtifact(SnsSystem* system, const std::string& name) {
  std::string path = ::testing::TempDir() + "BENCH_" + name + ".json";
  EXPECT_TRUE(WriteRunArtifact(path, name, system->sim()->now(), system->ArtifactSections()));
  std::string artifact;
  EXPECT_TRUE(ReadFile(path.c_str(), &artifact));
  std::remove(path.c_str());
  TraceRenderer trace;
  std::string error;
  EXPECT_TRUE(trace.Render(artifact, &error)) << error;
  return trace;
}

TEST(FlightRecorderIntegrationTest, ChromeTraceExportCarriesSpansFlowsAndFaults) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xCAFE);

  FailureInjector injector(service.system()->cluster(), service.system()->san());
  service.system()->AttachFailureInjector(&injector);

  client->StartConstantRate(15, UniformUrls(service.universe(), 0xCAFE, "trace"));
  service.sim()->RunFor(Seconds(10));
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  injector.CrashProcessAt(service.sim()->now() + Seconds(1), workers[0]->pid());
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  EXPECT_GT(injector.injected_count(), 0);
  EXPECT_GT(service.system()->event_log()->faults_recorded(), 0u);
  EXPECT_GT(service.system()->event_log()->messages_recorded(), 0u);

  TraceRenderer rendered = RenderRunArtifact(service.system(), "chrome_trace_test");
  const std::string& trace = rendered.json;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // Span slices.
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // Flow starts.
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // Flow ends.
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);  // Fault instants.
  EXPECT_NE(trace.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);

  // One slice per exemplar span, one instant per recorded fault.
  std::map<std::string, long long> phases;
  ASSERT_TRUE(CountTracePhases(trace, &phases));
  EXPECT_GT(rendered.spans, 0);
  EXPECT_EQ(phases["X"], rendered.spans);
  EXPECT_GT(rendered.flows, 0);
  EXPECT_EQ(phases["s"], rendered.flows);
  EXPECT_EQ(phases["f"], rendered.flows);
  EXPECT_EQ(phases["i"], service.system()->event_log()->faults_recorded());
}

// ---------------------------------------------------------------------------
// Snapshot audit: every PR2-3 counter reaches the exported monitor snapshot
// ---------------------------------------------------------------------------

TEST(SnapshotAuditTest, MonitorExportCoversFlightRecorderCounters) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DistillHeavyOptions();
  TranSendService service(options);
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0xA0D1);

  client->StartConstantRate(10, UniformUrls(service.universe(), 0xA0D1, "audit"));
  service.sim()->RunFor(Seconds(15));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  ASSERT_NE(service.system()->monitor(), nullptr);
  std::string snapshot = service.system()->monitor()->ExportJson();

  // The full expected key set: overload-control and partition-tolerance
  // counters introduced alongside deadlines/backoff/consistent-hashing, plus
  // the SAN delivery counters the flight recorder samples. A name silently
  // missing here means the instrument was never registered with the registry
  // the monitor exports.
  const char* required[] = {
      "fe.0.completed_requests",
      "fe.0.error_responses",
      "fe.0.task_timeouts",
      "fe.0.task_retries",
      "fe.0.retries_backoff",
      "fe.0.ring_remaps",
      "fe.0.deadline_expired",
      "expired_tasks",          // worker.<type>.p<pid>.expired_tasks
      "expired_gets",           // cache.n<node>.expired_gets
      "san.messages_delivered",
      "san.datagrams_dropped",
      "san.reliable_failed_fast",
      "san.messages_lost_unreachable",
      "san.multicast_suppressed",
      // Control-plane instruments from the quorum/fencing work: the manager's
      // current mastership epoch and the membership service's vote ledger are
      // gauges bound at startup, the fence counter registers even when no kill
      // ever fires (a zero is still evidence the instrument exists).
      "manager.epoch",
      "quorum.votes_held",
      "quorum.votes_total",
      "quorum.is_quorate",
      "fencing.kills",
      // Harvest/yield ledger gauges: bound in the SnsSystem constructor and
      // refreshed on every record, so a run with offered load must export
      // non-trivial running totals alongside the ratios.
      "availability.offered",
      "availability.answered",
      "availability.yield",
      "availability.harvest",
  };
  for (const char* key : required) {
    EXPECT_NE(snapshot.find(key), std::string::npos)
        << "metric \"" << key << "\" missing from the exported snapshot";
  }

  // The flight recorder samples the same registry on a timer while the system
  // runs, so the run must have produced time series for the node probes too.
  ASSERT_NE(service.system()->recorder(), nullptr);
  EXPECT_GT(service.system()->recorder()->samples_taken(), 0);
  std::string timeseries = service.system()->recorder()->ToJson();
  EXPECT_NE(timeseries.find("cpu_util"), std::string::npos);
  EXPECT_NE(timeseries.find("fe.0.completed_requests"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden export bytes: the exporters' output for one deterministic run
// ---------------------------------------------------------------------------

struct ExportDigest {
  size_t length;
  uint64_t fnv1a;
};

ExportDigest DigestOf(const std::string& json) { return {json.size(), Fnv1a(json)}; }

// Pins the length and FNV-1a hash of each exported section of a short traced run
// with a mid-run worker crash (so error outcomes, retries and fault instants are
// all present). The pins were taken from the printf-based exporters; the
// appender-based ones must reproduce them byte for byte. "chrome_trace" is the
// run artifact's timeline as tools/render_trace.h renders it. A deliberate
// format change re-pins them from the failure message.
TEST(ExportGoldenTest, SectionsMatchPinnedBytes) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendService service(DistillHeavyOptions());
  service.Start();
  PlaybackEngine* client = service.AddPlaybackEngine(0x601D);
  FailureInjector injector(service.system()->cluster(), service.system()->san());
  service.system()->AttachFailureInjector(&injector);

  client->StartConstantRate(15, UniformUrls(service.universe(), 0x601D, "golden"));
  service.sim()->RunFor(Seconds(10));
  auto workers = service.system()->live_workers(kJpegDistillerType);
  ASSERT_FALSE(workers.empty());
  injector.CrashProcessAt(service.sim()->now() + Seconds(1), workers[0]->pid());
  service.sim()->RunFor(Seconds(10));
  client->StopLoad();
  service.sim()->RunFor(Seconds(5));

  const TraceCollector& tracer = *service.system()->tracer();
  const std::map<std::string, ExportDigest> pinned = {
      {"timeseries", {14944, 0x4f990acb7345d6f4ULL}},
      {"traces", {71910, 0x2d541685bff215fULL}},
      {"critical_path", {986, 0xb85b7404572e0547ULL}},
      {"chrome_trace", {106011, 0xf9342cbbce4b38a8ULL}},
  };
  std::string timeseries = service.system()->recorder()->ToJson();
  std::string traces = tracer.ToJson();
  // The two large sections are sized before they are written: the buffer never
  // regrows and carries no slack (allowing for an allocator's rounding).
  EXPECT_LT(timeseries.capacity() - timeseries.size(), 16u);
  EXPECT_LT(traces.capacity() - traces.size(), 16u);
  const std::map<std::string, ExportDigest> actual = {
      {"timeseries", DigestOf(timeseries)},
      {"traces", DigestOf(traces)},
      {"critical_path", DigestOf(CriticalPathSummary::FromCollector(tracer).ToJson())},
      {"chrome_trace", DigestOf(RenderRunArtifact(service.system(), "golden_test").json)},
  };
  for (const auto& [section, want] : pinned) {
    const ExportDigest& got = actual.at(section);
    EXPECT_TRUE(got.length == want.length && got.fnv1a == want.fnv1a)
        << section << ": got {" << got.length << ", 0x" << std::hex << got.fnv1a
        << "ULL}" << std::dec << ", pinned {" << want.length << ", 0x" << std::hex
        << want.fnv1a << "ULL}";
  }
}

}  // namespace
}  // namespace sns

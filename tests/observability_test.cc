// Tests for the observability layer: the metrics registry, the trace collector,
// and end-to-end request tracing through a live TranSend system.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/obs/artifact.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// ---------- MetricsRegistry unit tests --------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreStableAndCumulative) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("manager.beacons_sent");
  c->Increment();
  c->Increment(4);
  // A second lookup (a restarted process re-attaching) returns the same
  // instrument: counts survive process incarnations.
  EXPECT_EQ(registry.GetCounter("manager.beacons_sent"), c);
  EXPECT_EQ(registry.CounterValue("manager.beacons_sent"), 5);
  EXPECT_EQ(registry.CounterValue("absent"), 0);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);

  Gauge* g = registry.GetGauge("fe.0.active_requests");
  g->Set(3.5);
  EXPECT_DOUBLE_EQ(registry.FindGauge("fe.0.active_requests")->value(), 3.5);

  Histogram* h = registry.GetHistogram("fe.0.latency_s", 0.0, 10.0, 100);
  h->Add(1.0);
  EXPECT_EQ(registry.GetHistogram("fe.0.latency_s", 0.0, 99.0, 5), h);
  EXPECT_EQ(registry.instrument_count(), 3u);
}

TEST(MetricsRegistryTest, RendersSortedTextAndParseableJson) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("c.depth")->Set(7);
  registry.GetHistogram("d.lat", 0.0, 1.0, 10)->Add(0.25);

  std::string text = registry.RenderText();
  EXPECT_LT(text.find("a.count"), text.find("b.count"));  // Sorted by name.

  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Minimal well-formedness: balanced braces, no raw control characters.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny"), "x\\ny");
}

// ---------- JSON appenders vs printf (differential) -------------------------------------------

// The printf-based escaper the appenders replaced: the oracle for AppendEscaped.
std::string PrintfJsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Double6g(double v) {
  std::string out;
  AppendDouble6g(&out, v);
  return out;
}

std::string Fixed(double v, int precision) {
  std::string out;
  AppendFixed(&out, v, precision);
  return out;
}

void ExpectDoubleMatchesPrintf(double v) {
  EXPECT_EQ(Double6g(v), StrFormat("%.6g", v)) << "bits " << std::hex << std::bit_cast<uint64_t>(v);
  EXPECT_EQ(Fixed(v, 4), StrFormat("%.4f", v)) << "bits " << std::hex << std::bit_cast<uint64_t>(v);
  EXPECT_EQ(Fixed(v, 3), StrFormat("%.3f", v)) << "bits " << std::hex << std::bit_cast<uint64_t>(v);
}

void ExpectIntMatchesPrintf(int64_t v) {
  std::string out;
  AppendInt(&out, v);
  EXPECT_EQ(out, StrFormat("%lld", static_cast<long long>(v)));
  EXPECT_EQ(IntLength(v), out.size()) << v;
}

void ExpectUintMatchesPrintf(uint64_t v) {
  std::string out;
  AppendUint(&out, v);
  EXPECT_EQ(out, StrFormat("%llu", static_cast<unsigned long long>(v)));
  EXPECT_EQ(UintLength(v), out.size()) << v;
}

TEST(JsonAppenderTest, EdgeDoublesMatchPrintf) {
  const double edges[] = {
      0.0, -0.0, 1.0, -1.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 1e-7, 1e-5, 1e-4, 0.0001234565, 0.5, 0.00005,
      999999.0, 999999.4, 999999.5, -999999.5, 1e6, 1e6 - 1, 123456.5, 1234567.0, 1e15,
      9007199254740992.0,  // 2^53
      9007199254740993.0, static_cast<double>(std::numeric_limits<int64_t>::min()),
      static_cast<double>(std::numeric_limits<int64_t>::max()), 0.1, 2.5, 0.00015, 1e21, 1e-300,
      3.14159265358979, 12345.65, 0.30000000000000004};
  for (double v : edges) {
    ExpectDoubleMatchesPrintf(v);
  }
}

TEST(JsonAppenderTest, SeededRandomDoublesMatchPrintf) {
  std::mt19937_64 rng(0x70C4A125);
  for (int i = 0; i < 10000; ++i) {
    uint64_t bits = rng();
    double v = 0.0;
    switch (i % 5) {
      case 0:  // Any bit pattern: every exponent, denormals, inf and NaN payloads.
        v = std::bit_cast<double>(bits);
        break;
      case 1:  // Integers, the counters the time series mostly holds.
        v = static_cast<double>(static_cast<int64_t>(bits >> 40) - (int64_t{1} << 23));
        break;
      case 2:  // Fractions in [0, 1): ratios, utilizations.
        v = static_cast<double>(bits >> 11) * 0x1.0p-53;
        break;
      case 3:  // Around the %.6g switch to exponent notation at 1e6.
        v = 999990.0 + static_cast<double>(bits % 2000) / 100.0;
        break;
      case 4:  // Seconds-scale latencies across twelve decades.
        v = std::ldexp(static_cast<double>(bits >> 11), -53) *
            std::pow(10.0, static_cast<double>(bits % 12) - 6.0);
        break;
    }
    ExpectDoubleMatchesPrintf(v);
  }
}

TEST(JsonAppenderTest, IntegersMatchPrintf) {
  std::vector<int64_t> ints = {0, 1, -1, 9, 10, -10, 99, 100, std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min() + 1};
  for (int64_t p = 1; p <= std::numeric_limits<int64_t>::max() / 10; p *= 10) {
    ints.insert(ints.end(), {p - 1, p, p + 1, -p, -p - 1});
  }
  for (int64_t v : ints) {
    ExpectIntMatchesPrintf(v);
    ExpectUintMatchesPrintf(static_cast<uint64_t>(v));
  }
  ExpectUintMatchesPrintf(std::numeric_limits<uint64_t>::max());
  std::mt19937_64 rng(0x1A7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t bits = rng() >> (i % 64);
    ExpectIntMatchesPrintf(static_cast<int64_t>(bits));
    ExpectUintMatchesPrintf(bits);
  }
}

TEST(JsonAppenderTest, EscaperMatchesPrintfEscaper) {
  std::vector<std::string> inputs = {"", "plain", "a\"b\\c", "x\ny\tz\rw", "\"\"\\\\",
                                     "trailing\\", "caf\xc3\xa9", "\x7f\x80\xff"};
  for (int c = 0; c < 256; ++c) {
    inputs.push_back(std::string(1, static_cast<char>(c)));
    inputs.push_back("pre" + std::string(1, static_cast<char>(c)) + "post");
  }
  std::string all_bytes;
  for (int c = 255; c >= 0; --c) {
    all_bytes += static_cast<char>(c);
  }
  inputs.push_back(all_bytes);
  for (const std::string& s : inputs) {
    std::string want = PrintfJsonEscape(s);
    std::string got = "prefix:";
    AppendEscaped(&got, s);
    EXPECT_EQ(got, "prefix:" + want);
    EXPECT_EQ(JsonEscape(s), want);
    EXPECT_EQ(EscapedLength(s), want.size());
  }
}

// ---------- TraceCollector unit tests ---------------------------------------------------------

TEST(TraceCollectorTest, ChildSpansInheritTraceAndChainParents) {
  TraceCollector collector;
  TraceContext root = collector.StartTrace();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);

  TraceContext child = collector.ChildOf(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_EQ(child.hop_count, root.hop_count + 1);
  EXPECT_NE(child.span_id, root.span_id);

  // Untraced stays untraced.
  TraceContext none = collector.ChildOf(TraceContext{});
  EXPECT_FALSE(none.valid());
}

TEST(TraceCollectorTest, RecordsAndReassemblesOrderedSpans) {
  TraceCollector collector;
  TraceContext root = collector.StartTrace();
  TraceContext child = collector.ChildOf(root);

  SpanRecord inner;
  inner.trace_id = child.trace_id;
  inner.span_id = child.span_id;
  inner.parent_span_id = child.parent_span_id;
  inner.component = "worker";
  inner.operation = "worker.task";
  inner.start = 200;
  inner.end = 300;
  inner.outcome = "ok";
  collector.Record(inner);

  SpanRecord outer = inner;
  outer.span_id = root.span_id;
  outer.parent_span_id = 0;
  outer.component = "front-end-0";
  outer.operation = "fe.request";
  outer.start = 100;
  outer.end = 400;
  collector.Record(outer);

  // Invalid spans are dropped.
  collector.Record(SpanRecord{});

  std::vector<SpanRecord> spans = collector.Trace(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].operation, "fe.request");  // Sorted by start time.
  EXPECT_EQ(spans[1].operation, "worker.task");
  EXPECT_EQ(collector.span_count(), 2u);

  std::string json = collector.TraceToJson(root.trace_id);
  EXPECT_NE(json.find("\"fe.request\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.task\""), std::string::npos);
}

TEST(TraceCollectorTest, SpanJsonMatchesPrintfAndItsLength) {
  SpanRecord root;  // Zero ids and node -1: the shortest and the signed fields.
  root.component = "playback";
  root.operation = "client.request";
  root.outcome = "ok";
  SpanRecord odd;
  odd.span_id = std::numeric_limits<uint64_t>::max();
  odd.parent_span_id = 1234567;
  odd.component = "worker:distill-jpeg";
  odd.operation = "we\"ird\\op\n\x01";
  odd.node = std::numeric_limits<int32_t>::min();
  odd.start = std::numeric_limits<int64_t>::min();
  odd.end = 1200000000123;
  odd.outcome = "\x7f\xff";
  for (const SpanRecord& span : {root, odd}) {
    std::string want = StrFormat(
        "{\"span_id\":%llu,\"parent_span_id\":%llu,\"component\":\"%s\",\"operation\":\"%s\","
        "\"node\":%d,\"start_ns\":%lld,\"end_ns\":%lld,\"outcome\":\"%s\"}",
        static_cast<unsigned long long>(span.span_id),
        static_cast<unsigned long long>(span.parent_span_id), JsonEscape(span.component).c_str(),
        JsonEscape(span.operation).c_str(), span.node, static_cast<long long>(span.start),
        static_cast<long long>(span.end), JsonEscape(span.outcome).c_str());
    std::string got;
    span.AppendJson(&got);
    EXPECT_EQ(got, want);
    EXPECT_EQ(span.JsonLength(), want.size());
  }
}

TEST(TraceCollectorTest, EvictsOldestTraceFifo) {
  TraceCollector collector(/*max_traces=*/2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    TraceContext root = collector.StartTrace();
    SpanRecord span;
    span.trace_id = root.trace_id;
    span.span_id = root.span_id;
    span.start = i;
    span.end = i + 1;
    collector.Record(span);
    ids.push_back(root.trace_id);
  }
  EXPECT_EQ(collector.trace_count(), 2u);
  EXPECT_TRUE(collector.Trace(ids[0]).empty());   // Oldest evicted.
  EXPECT_FALSE(collector.Trace(ids[2]).empty());  // Tail retained.
  EXPECT_EQ(collector.traces_started(), 3u);
}

// ---------- end-to-end tracing through the live system ----------------------------------------

TEST(TracingIntegrationTest, RequestTraceSpansClientFrontEndCacheAndWorker) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 50;
  TranSendService service(options);
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));

  // One cold request: front end -> cache (miss) -> origin fetch -> distiller ->
  // response. SendRequest opens the root span and returns its trace id.
  TraceRecord record;
  record.user_id = "tracer";
  record.url = "http://site0.example.edu/obj0.jpg";
  uint64_t trace_id = client->SendRequest(record);
  ASSERT_NE(trace_id, 0u);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  std::vector<SpanRecord> spans = service.system()->tracer()->Trace(trace_id);
  ASSERT_GE(spans.size(), 4u);

  // Spans come from at least three distinct components (client, front end, and
  // cache/worker at minimum — here all four).
  std::set<std::string> components;
  std::map<uint64_t, const SpanRecord*> by_span_id;
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id);
    EXPECT_LE(span.start, span.end);
    components.insert(span.component);
    by_span_id[span.span_id] = &span;
  }
  EXPECT_GE(components.size(), 3u);
  EXPECT_EQ(components.count("playback"), 1u);
  EXPECT_EQ(components.count("front-end-0"), 1u);
  EXPECT_EQ(components.count("worker:" + std::string(kJpegDistillerType)), 1u);

  // Sim-times nest monotonically: every child starts no earlier than its parent.
  const SpanRecord* root = nullptr;
  const SpanRecord* fe = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.parent_span_id == 0) {
      root = &span;
    }
    if (span.operation == "fe.request") {
      fe = &span;
    }
    auto parent = by_span_id.find(span.parent_span_id);
    if (parent != by_span_id.end()) {
      EXPECT_GE(span.start, parent->second->start)
          << span.operation << " starts before its parent " << parent->second->operation;
    }
  }

  // The client's span is the root and fully encloses the front end's, which in
  // turn encloses the distillation.
  ASSERT_NE(root, nullptr);
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(root->operation, "client.request");
  EXPECT_EQ(root->outcome, "ok");
  EXPECT_EQ(fe->parent_span_id, root->span_id);
  EXPECT_GE(fe->start, root->start);
  EXPECT_LE(fe->end, root->end);
  for (const SpanRecord& span : spans) {
    if (span.operation == "worker.task" || span.operation == "cache.get") {
      EXPECT_GE(span.start, fe->start);
      EXPECT_LE(span.end, fe->end);
    }
  }

  // Background chatter (beacons, load reports) stays untraced: every retained
  // trace was started by a client request.
  EXPECT_EQ(service.system()->tracer()->traces_started(), 1u);
}

// ---------- monitor snapshot export -----------------------------------------------------------

TEST(MonitorExportTest, SnapshotCarriesRegistryMetricsAndComponents) {
  Logger::Get().set_min_level(LogLevel::kNone);
  TranSendOptions options = DefaultTranSendOptions();
  options.topology.worker_pool_nodes = 4;
  options.topology.cache_nodes = 2;
  options.universe.url_count = 50;
  TranSendService service(options);
  service.Start();
  service.system()->StartWorker(kJpegDistillerType);
  PlaybackEngine* client = service.AddPlaybackEngine();
  service.sim()->RunFor(Seconds(3));
  TraceRecord record;
  record.user_id = "snap";
  record.url = "http://site0.example.edu/obj1.jpg";
  client->SendRequest(record);
  service.sim()->RunFor(Seconds(140));
  ASSERT_EQ(client->completed(), 1);

  MonitorProcess* monitor = service.system()->monitor();
  ASSERT_NE(monitor, nullptr);
  std::string json = monitor->ExportJson();

  // The renamed manager / front-end counters surface through the registry dump,
  // consistent with the accessors.
  ManagerProcess* manager = service.system()->manager();
  ASSERT_NE(manager, nullptr);
  EXPECT_NE(json.find(StrFormat("\"manager.beacons_sent\":%lld",
                                static_cast<long long>(manager->beacons_sent()))),
            std::string::npos);
  FrontEndProcess* fe = service.system()->front_end(0);
  ASSERT_NE(fe, nullptr);
  EXPECT_NE(json.find(StrFormat("\"fe.0.completed_requests\":%lld",
                                static_cast<long long>(fe->completed_requests()))),
            std::string::npos);
  EXPECT_GT(fe->completed_requests(), 0);

  // Quorum membership and fencing state (DESIGN.md §14) export through the same
  // registry dump: the epoch and vote gauges plus the fence-kill counter.
  EXPECT_NE(json.find("\"manager.epoch\":1"), std::string::npos);
  EXPECT_NE(json.find("\"quorum.is_quorate\":1"), std::string::npos);
  EXPECT_NE(json.find("\"quorum.votes_held\":"), std::string::npos);
  EXPECT_NE(json.find("\"quorum.votes_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"fencing.kills\":0"), std::string::npos);

  // Structure: time, metrics, the monitor's component view, alarms.
  EXPECT_EQ(json.rfind("{\"time_ns\":", 0), 0u);
  EXPECT_NE(json.find("\"components\":["), std::string::npos);
  EXPECT_NE(json.find("\"alarms\":["), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"manager\""), std::string::npos);

  // Balanced braces (quick well-formedness proxy).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

// ---------- Run-artifact writer ---------------------------------------------------------------

std::vector<ArtifactSection> MinimalSections() {
  std::vector<ArtifactSection> sections;
  for (const char* name : kArtifactSections) {
    sections.push_back({name, "{}"});
  }
  return sections;
}

std::string ReadAll(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  return text;
}

TEST(ArtifactWriterTest, WritesMetaThenSectionsInOrder) {
  std::vector<ArtifactSection> sections = MinimalSections();
  sections[0].json = "{\"requests\":42}";
  sections.push_back({"matrix", "{\"cell\":\"c\"}"});
  std::string path = testing::TempDir() + "/artifact_writer_test.json";
  ASSERT_TRUE(WriteRunArtifact(path, "na\"me", -5, sections));
  EXPECT_EQ(ReadAll(path),
            "{\"meta\":{\"schema_version\":2,\"bench\":\"na\\\"me\",\"time_ns\":-5},"
            "\"snapshot\":{\"requests\":42},\"timeseries\":{},\"critical_path\":{},"
            "\"availability\":{},\"profile\":{},\"traces\":{},"
            "\"matrix\":{\"cell\":\"c\"}}\n");
}

TEST(ArtifactWriterTest, RejectsMissingOrMisorderedSections) {
  std::string path = testing::TempDir() + "/artifact_writer_rejects.json";
  std::vector<ArtifactSection> missing = MinimalSections();
  missing.erase(missing.begin() + 3);  // No "availability".
  EXPECT_FALSE(WriteRunArtifact(path, "b", 0, missing));
  std::vector<ArtifactSection> swapped = MinimalSections();
  std::swap(swapped[1], swapped[2]);
  EXPECT_FALSE(WriteRunArtifact(path, "b", 0, swapped));
  std::vector<ArtifactSection> extra_first = MinimalSections();
  extra_first.insert(extra_first.begin(), {"matrix", "{}"});
  EXPECT_FALSE(WriteRunArtifact(path, "b", 0, extra_first));
}

TEST(ArtifactWriterTest, ReportsOpenAndCloseFailures) {
  EXPECT_FALSE(WriteRunArtifact(testing::TempDir() + "/no/such/dir/a.json", "b", 0,
                                MinimalSections()));
  // /dev/full accepts the open and buffered writes; the flush on close fails
  // with ENOSPC, which the writer must report.
  if (std::FILE* f = std::fopen("/dev/full", "w")) {
    std::fclose(f);
    EXPECT_FALSE(WriteRunArtifact("/dev/full", "b", 0, MinimalSections()));
  }
}

}  // namespace
}  // namespace sns

#include "src/obs/perfetto.h"

#include <cstdint>
#include <map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/util/strings.h"

namespace sns {

namespace {

// Lanes ("threads") are allocated per (node, component-name) pair as they appear;
// each node also gets a dedicated "san" lane for message markers.
class LaneTable {
 public:
  int Lane(int32_t node, const std::string& component, std::string* metadata) {
    auto key = std::make_pair(node, component);
    auto it = lanes_.find(key);
    if (it != lanes_.end()) {
      return it->second;
    }
    int lane = ++next_lane_per_node_[node];
    lanes_[key] = lane;
    if (seen_nodes_.insert({node, 0}).second) {
      *metadata += StrFormat(
          "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"node %d\"}},",
          node, node);
    }
    *metadata += StrFormat(
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}},",
        node, lane, JsonEscape(component).c_str());
    return lane;
  }

 private:
  std::map<std::pair<int32_t, std::string>, int> lanes_;
  std::map<int32_t, int> next_lane_per_node_;
  std::map<int32_t, int> seen_nodes_;
};

double ToMicros(SimTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

std::string ExportChromeTrace(const TraceCollector& collector, const EventLog* events) {
  LaneTable lanes;
  std::string metadata;
  std::string body;

  collector.ForEachTrace([&](uint64_t, const std::vector<const SpanRecord*>& spans) {
    for (const SpanRecord* record : spans) {
      const SpanRecord& span = *record;
      int lane = lanes.Lane(span.node, span.component, &metadata);
      body += StrFormat(
          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"span\",\"pid\":%d,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,\"span_id\":%llu,"
          "\"parent_span_id\":%llu,\"outcome\":\"%s\"}},",
          JsonEscape(span.operation).c_str(), span.node, lane, ToMicros(span.start),
          ToMicros(span.end - span.start), static_cast<unsigned long long>(span.trace_id),
          static_cast<unsigned long long>(span.span_id),
          static_cast<unsigned long long>(span.parent_span_id), JsonEscape(span.outcome).c_str());
    }
  });

  if (events != nullptr) {
    for (const SanEvent& ev : events->messages()) {
      // Marker slices anchor the flow arrows; 1 µs of nominal width keeps them
      // clickable without implying real duration.
      switch (ev.kind) {
        case SanEvent::Kind::kSend: {
          int lane = lanes.Lane(ev.src_node, "san", &metadata);
          body += StrFormat(
              "{\"ph\":\"X\",\"name\":\"send msg.%u\",\"cat\":\"san\",\"pid\":%d,\"tid\":%d,"
              "\"ts\":%.3f,\"dur\":1,\"args\":{\"seq\":%llu,\"trace_id\":%llu,\"bytes\":%lld}},",
              ev.msg_type, ev.src_node, lane, ToMicros(ev.at),
              static_cast<unsigned long long>(ev.seq),
              static_cast<unsigned long long>(ev.trace_id), static_cast<long long>(ev.size_bytes));
          body += StrFormat(
              "{\"ph\":\"s\",\"name\":\"msg\",\"cat\":\"san\",\"id\":%llu,\"pid\":%d,"
              "\"tid\":%d,\"ts\":%.3f},",
              static_cast<unsigned long long>(ev.seq), ev.src_node, lane, ToMicros(ev.at));
          break;
        }
        case SanEvent::Kind::kDeliver: {
          int lane = lanes.Lane(ev.dst_node, "san", &metadata);
          body += StrFormat(
              "{\"ph\":\"X\",\"name\":\"recv msg.%u\",\"cat\":\"san\",\"pid\":%d,\"tid\":%d,"
              "\"ts\":%.3f,\"dur\":1,\"args\":{\"seq\":%llu,\"trace_id\":%llu}},",
              ev.msg_type, ev.dst_node, lane, ToMicros(ev.at),
              static_cast<unsigned long long>(ev.seq),
              static_cast<unsigned long long>(ev.trace_id));
          body += StrFormat(
              "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"msg\",\"cat\":\"san\",\"id\":%llu,"
              "\"pid\":%d,\"tid\":%d,\"ts\":%.3f},",
              static_cast<unsigned long long>(ev.seq), ev.dst_node, lane, ToMicros(ev.at));
          break;
        }
        case SanEvent::Kind::kDrop: {
          int32_t node = ev.dst_node >= 0 ? ev.dst_node : ev.src_node;
          int lane = lanes.Lane(node, "san", &metadata);
          body += StrFormat(
              "{\"ph\":\"X\",\"name\":\"drop msg.%u (%s)\",\"cat\":\"san\",\"pid\":%d,"
              "\"tid\":%d,\"ts\":%.3f,\"dur\":1,\"args\":{\"seq\":%llu,\"trace_id\":%llu}},",
              ev.msg_type, JsonEscape(ev.detail).c_str(), node, lane, ToMicros(ev.at),
              static_cast<unsigned long long>(ev.seq),
              static_cast<unsigned long long>(ev.trace_id));
          body += StrFormat(
              "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"msg\",\"cat\":\"san\",\"id\":%llu,"
              "\"pid\":%d,\"tid\":%d,\"ts\":%.3f},",
              static_cast<unsigned long long>(ev.seq), node, lane, ToMicros(ev.at));
          break;
        }
      }
    }
    for (const FaultInstant& fault : events->faults()) {
      body += StrFormat(
          "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"%s\",\"cat\":\"fault\",\"pid\":0,\"tid\":0,"
          "\"ts\":%.3f},",
          JsonEscape(fault.what).c_str(), ToMicros(fault.at));
    }
  }

  // Host-CPU zone profiler counter tracks (empty unless the profiler ran):
  // they land in their own pid so they render as a separate "host cpu" group
  // below the simulated-time lanes.
  body += ProfilerCounterTrackJson();

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += metadata;
  out += body;
  // Tolerate the trailing comma by closing with a harmless metadata event.
  out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"cluster\"}}";
  out += "]}";
  return out;
}

}  // namespace sns

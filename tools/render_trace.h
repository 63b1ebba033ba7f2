// Renders a run artifact (src/obs/artifact.h) as a Chrome trace ("Trace Event
// Format" JSON) that ui.perfetto.dev and chrome://tracing open:
//   - each exemplar span of the "traces" section becomes an "X" slice on one
//     lane per (node, component): pid = cluster node, tid = the lane;
//   - each parent -> child link that crosses lanes becomes a flow arrow
//     ("s" on the parent's lane, "f" on the child's, both at the child's start);
//   - each "availability.faults" entry becomes a global instant ("i", scope
//     "g"), a vertical marker across every track.
// Timestamps are microseconds, the format's unit, so span nanoseconds survive
// as fractional ts values. Header-only on json_reader.h, like the other tools,
// so a test can render the artifact of the run it has just made.

#ifndef TOOLS_RENDER_TRACE_H_
#define TOOLS_RENDER_TRACE_H_

#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json_reader.h"

namespace sns {

class TraceRenderer {
 public:
  std::string json;      // The rendered trace.
  long long spans = 0;   // Exemplar spans read: one "X" slice each.
  long long flows = 0;   // Cross-lane parent -> child links: one "s"/"f" pair each.
  long long faults = 0;  // availability.faults entries: one "i" instant each.

  // Renders `artifact` into the members above; false, with the reason in
  // `error`, when the artifact is not well-formed JSON.
  bool Render(std::string_view artifact, std::string* error) {
    json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    JsonReader reader(artifact);
    auto read_traces = [&] { return reader.Array([&] { return Trace(&reader); }); };
    auto read_faults = [&] { return reader.Array([&] { return Fault(&reader); }); };
    bool ok = reader.Object([&](const std::string& section) {
      if (section != "traces" && section != "availability") return reader.Skip();
      return reader.Object([&](const std::string& key) {
        if (section == "traces" && key == "traces") return read_traces();
        return section == "availability" && key == "faults" ? read_faults() : reader.Skip();
      });
    });
    json += "]}";
    *error = ok && !reader.AtEnd() ? "content after the artifact" : reader.error();
    return error->empty();
  }

 private:
  struct Span {  // Ids, nodes and times are integers: doubles print them with %.0f.
    double span_id = 0, parent_span_id = 0, node = 0, start_ns = 0, end_ns = 0;
    std::string component, operation, outcome;
    int lane = 0;
  };

  bool Trace(JsonReader* reader) {
    double trace_id = 0;
    std::vector<Span> trace;
    bool ok = reader->Object([&](const std::string& key) {
      if (key == "trace_id") return reader->Number(&trace_id);
      if (key != "spans") return reader->Skip();
      return reader->Array([&] {
        Span& s = trace.emplace_back();
        return reader->Object([&](const std::string& field) {
          if (field == "span_id") return reader->Number(&s.span_id);
          if (field == "parent_span_id") return reader->Number(&s.parent_span_id);
          if (field == "component") return reader->String(&s.component);
          if (field == "operation") return reader->String(&s.operation);
          if (field == "node") return reader->Number(&s.node);
          if (field == "start_ns") return reader->Number(&s.start_ns);
          if (field == "end_ns") return reader->Number(&s.end_ns);
          if (field == "outcome") return reader->String(&s.outcome);
          return reader->Skip();
        });
      });
    });
    for (Span& s : trace) {
      s.lane = Lane(s.node, s.component);
      Add("{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"span\",\"pid\":%.0f,\"tid\":%d,\"ts\":%.3f,"
          "\"dur\":%.3f,\"args\":{\"trace_id\":%.0f,\"span_id\":%.0f,\"parent_span_id\":%.0f,"
          "\"outcome\":\"%s\"}}",
          Escaped(s.operation).c_str(), s.node, s.lane, s.start_ns / 1000.0,
          (s.end_ns - s.start_ns) / 1000.0, trace_id, s.span_id, s.parent_span_id,
          Escaped(s.outcome).c_str());
      ++spans;
    }
    const char* flow = "{\"ph\":\"%s\",%s\"name\":\"call\",\"cat\":\"flow\",\"id\":%.0f,"
                       "\"pid\":%.0f,\"tid\":%d,\"ts\":%.3f}";
    for (const Span& child : trace) {
      for (const Span& parent : trace) {
        if (parent.span_id == child.parent_span_id &&
            (parent.node != child.node || parent.lane != child.lane)) {
          Add(flow, "s", "", child.span_id, parent.node, parent.lane, child.start_ns / 1000.0);
          Add(flow, "f", "\"bp\":\"e\",", child.span_id, child.node, child.lane,
              child.start_ns / 1000.0);
          ++flows;
        }
      }
    }
    return ok;
  }

  bool Fault(JsonReader* reader) {
    double t_ns = 0;
    std::string what;
    bool ok = reader->Object([&](const std::string& key) {
      if (key == "t_ns") return reader->Number(&t_ns);
      if (key == "what") return reader->String(&what);
      return reader->Skip();
    });
    Add("{\"ph\":\"i\",\"s\":\"g\",\"name\":\"%s\",\"cat\":\"fault\",\"pid\":0,\"tid\":0,"
        "\"ts\":%.3f}",
        Escaped(what).c_str(), t_ns / 1000.0);
    ++faults;
    return ok;
  }

  // The lane of (node, component): numbered from 1 per node, named on first use.
  int Lane(double node, const std::string& component) {
    auto [it, added] = lanes_.try_emplace({node, component}, 0);
    if (!added) return it->second;
    it->second = ++lanes_per_node_[node];
    if (it->second == 1) {
      Add("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%.0f,\"args\":{\"name\":\"node %.0f\"}}",
          node, node);
    }
    Add("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%.0f,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        node, it->second, Escaped(component).c_str());
    return it->second;
  }

  // Appends one printf-formatted event to traceEvents.
  [[gnu::format(printf, 2, 3)]] void Add(const char* format, ...) {
    if (json.back() != '[') json += ',';
    va_list args, size_args;
    va_start(args, format);
    va_copy(size_args, args);
    size_t at = json.size();
    json.resize(at + std::vsnprintf(nullptr, 0, format, size_args) + 1);
    json.resize(at + std::vsnprintf(json.data() + at, json.size() - at, format, args));
    va_end(size_args);
    va_end(args);
  }

  // `text` escaped for a JSON string; control characters become spaces.
  static std::string Escaped(std::string_view text) {
    std::string out;
    for (char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out;
  }

  std::map<std::pair<double, std::string>, int> lanes_;
  std::map<double, int> lanes_per_node_;
};

// Counts the events of a Chrome trace by phase ("X", "s", "f", "i", "M", ...);
// false when `trace` does not parse.
inline bool CountTracePhases(std::string_view trace, std::map<std::string, long long>* counts) {
  JsonReader reader(trace);
  std::string ph;
  auto event = [&](const std::string& key) {
    return key != "ph" ? reader.Skip() : reader.String(&ph) && ++(*counts)[ph] > 0;
  };
  auto events = [&] { return reader.Array([&] { return reader.Object(event); }); };
  return reader.Object([&](const std::string& key) {
           return key == "traceEvents" ? events() : reader.Skip();
         }) && reader.AtEnd();
}

}  // namespace sns

#endif  // TOOLS_RENDER_TRACE_H_

// Validates a BENCH_<name>.json run artifact against the uniform schema that
// src/obs/artifact.h defines and WriteRunArtifact writes:
//
//   {"meta":{"schema_version":2,"bench":<non-empty string>,"time_ns":<int>},
//    "snapshot":{...},"timeseries":{...},"critical_path":{...},
//    "availability":{...},"profile":{...},"traces":{...}}
//
// Used by the perf-smoke ctest label: each short-mode bench run is a fixture
// setup, and this validator is the check that the artifact exists, parses, and
// carries every top-level section. Exit 0 on success; non-zero with a message
// on any missing/malformed artifact.
//
// A "timeseries" section other than {} must have the flight recorder's layout
// (src/obs/timeseries.h): "interval_ns" > 0; one shared clock "t_ns", its
// first tick followed by run-encoded steps, all integers and every step
// positive (the clock is strictly increasing), no longer than "samples"; and
// "series", whose members are each {"v":[runs]} with no more values than the
// clock has times (each series is end-aligned with the clock). A run is a
// finite number (a run of one) or [value,count] with an integer count >= 1.
//
// A "traces" section other than {} must have the trace collector's layout
// (src/obs/trace.h): exemplar trace objects whose spans carry every field
// ({"span_id","parent_span_id","component","operation","node","start_ns",
// "end_ns","outcome"}), each span id once per trace; classes with a count >= 1 whose exemplar ids are unique
// and name exactly the exemplar traces; "window_s" > 0; and a window table with
// one row of per-class counts per start time, each class's counts summing to
// its count.
//
// Each "availability.faults" entry must carry its instant as an integer
// "t_ns" (the unit of span start_ns) and a "what" string. The "availability"
// section's "windows" arrays (second, offered, answered,
// unanswered, yield, harvest) must be of one length, with yield and harvest in
// [0, 1] and answered + unanswered <= offered in every window (answers are
// counted in the window of their offer). With --quiesced, every window must be
// resolved: answered + unanswered == offered.
//
// The profile-smoke label additionally gates the profiler's quality figures:
//   --min-profile-coverage X   require profile.coverage >= X (named root zones
//                              must attribute at least this wall fraction)
//   --max-profile-overhead Y   require profile.self_overhead <= Y (measured
//                              profiler cost bound as a wall fraction)
// Both gates also require profile.enabled == true (an artifact from a run that
// never enabled the profiler carries no evidence either way).
//
// The document is read with the strict reader in json_reader.h, and only
// constants come from artifact.h, so this tool links no library.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "json_reader.h"
#include "src/obs/artifact.h"

namespace {

using sns::JsonReader;

// Profiler quality figures pulled out of the artifact's "profile" section.
struct ProfileFacts {
  bool enabled = false;
  double coverage = 0;
  double self_overhead = 1.0;
};

// Reads a number into `out`; a value of any other type reads as -1.
bool NumberOrMinusOne(JsonReader* reader, double* out) {
  char c = reader->Peek();
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    return reader->Number(out);
  }
  *out = -1;
  return reader->Skip();
}

// Reads the profile section; an empty profile object is malformed.
bool ReadProfile(JsonReader* reader, ProfileFacts* profile) {
  int fields = 0;
  bool ok = reader->Object([&](const std::string& key) {
    ++fields;
    if (key == "enabled") {
      profile->enabled = false;
      char c = reader->Peek();
      return c == 't' || c == 'f' ? reader->Bool(&profile->enabled) : reader->Skip();
    }
    if (key == "coverage") {
      return NumberOrMinusOne(reader, &profile->coverage);
    }
    if (key == "self_overhead") {
      return NumberOrMinusOne(reader, &profile->self_overhead);
    }
    return reader->Skip();
  });
  return ok && (fields > 0 || reader->Fail("profile is an empty object"));
}

// Reads the timeseries section: {} or the recorder's layout (see the top).
bool ReadTimeseries(JsonReader* reader) {
  if (reader->Peek() != '{') {
    return reader->Fail("timeseries is not an object");
  }
  int fields = 0;
  double interval_ns = -1;
  double samples = -1;
  bool has_clock = false;
  bool has_series = false;
  size_t clock_size = 0;
  double longest = 0;
  std::string longest_name;
  bool ok = reader->Object([&](const std::string& key) {
    ++fields;
    if (key == "interval_ns") {
      return NumberOrMinusOne(reader, &interval_ns);
    }
    if (key == "samples") {
      return NumberOrMinusOne(reader, &samples);
    }
    if (key == "t_ns") {
      has_clock = true;
      return reader->Array([&] {
        if (clock_size == 0) {  // The first tick.
          double t = 0;
          if (!reader->Number(&t)) {
            return false;
          }
          ++clock_size;
          return t == std::floor(t) ||
                 reader->Fail("timeseries.t_ns holds a non-integer time");
        }
        double step = 0;
        double count = 0;
        if (!reader->Run(&step, &count)) {
          return false;
        }
        if (step != std::floor(step)) {
          return reader->Fail("timeseries.t_ns holds a non-integer step");
        }
        if (step <= 0) {
          return reader->Fail("timeseries.t_ns is not strictly increasing");
        }
        clock_size += static_cast<size_t>(count);
        return true;
      });
    }
    if (key != "series") {
      return reader->Skip();
    }
    has_series = true;
    return reader->Object([&](const std::string& name) {
      double values = 0;
      bool has_v = false;
      bool read = reader->Object([&](const std::string& field) {
        if (field != "v") {
          return reader->Fail("timeseries.series." + name + " has a field other than \"v\"");
        }
        has_v = true;
        return reader->Array([&] {
          double count = 0;
          if (!reader->Run(nullptr, &count)) {
            return false;
          }
          values += count;
          return true;
        });
      });
      if (read && values > longest) {
        longest = values;
        longest_name = name;
      }
      return read && (has_v || reader->Fail("timeseries.series." + name + " has no \"v\""));
    });
  });
  if (!ok || fields == 0) {
    return ok;  // {}: the bench ran no recorder.
  }
  if (interval_ns <= 0) {
    return reader->Fail("timeseries.interval_ns is missing or not positive");
  }
  if (!has_clock || !has_series) {
    return reader->Fail("timeseries.t_ns or timeseries.series is missing");
  }
  if (samples < static_cast<double>(clock_size)) {
    return reader->Fail("timeseries.samples is missing or below the length of t_ns");
  }
  if (longest > static_cast<double>(clock_size)) {
    return reader->Fail("timeseries.series." + longest_name +
                        " has more values than timeseries.t_ns has times");
  }
  return true;
}

// Reads an array of numbers into `out`.
bool Numbers(JsonReader* reader, std::vector<double>* out) {
  out->clear();
  return reader->Array([&] {
    double x = 0;
    if (!reader->Number(&x)) {
      return false;
    }
    out->push_back(x);
    return true;
  });
}

// Reads one span object into `span_id`; every field must be there, with its
// type.
bool ReadSpan(JsonReader* reader, double* span_id) {
  static const std::set<std::string> kStringFields = {"component", "operation", "outcome"};
  static const std::set<std::string> kNumberFields = {"span_id", "parent_span_id", "node",
                                                      "start_ns", "end_ns"};
  std::set<std::string> seen;
  bool ok = reader->Object([&](const std::string& key) {
    seen.insert(key);
    if (kStringFields.count(key) > 0) {
      return reader->Peek() == '"' ? reader->String(nullptr)
                                   : reader->Fail("span field \"" + key + "\" is not a string");
    }
    if (kNumberFields.count(key) > 0) {
      return reader->Number(key == "span_id" ? span_id : nullptr);
    }
    return reader->Skip();
  });
  if (!ok) {
    return false;
  }
  for (const std::set<std::string>* fields : {&kStringFields, &kNumberFields}) {
    for (const std::string& field : *fields) {
      if (seen.count(field) == 0) {
        return reader->Fail("a span has no \"" + field + "\"");
      }
    }
  }
  return true;
}

// Reads the traces section: {} or the collector's layout (see the top).
bool ReadTraces(JsonReader* reader) {
  if (reader->Peek() != '{') {
    return reader->Fail("traces is not an object");
  }
  int fields = 0;
  std::set<double> trace_ids;
  std::set<double> exemplar_ids;
  std::vector<double> class_counts;
  double window_s = -1;
  std::vector<double> start_s;
  std::vector<std::vector<double>> rows;
  bool has_classes = false;
  bool has_windows = false;
  bool ok = reader->Object([&](const std::string& key) {
    ++fields;
    if (key == "traces") {
      return reader->Array([&] {
        return reader->Object([&](const std::string& field) {
          if (field == "trace_id") {
            double id = 0;
            return reader->Number(&id) &&
                   (trace_ids.insert(id).second || reader->Fail("two exemplar traces share an id"));
          }
          if (field != "spans") {
            return reader->Skip();
          }
          std::set<double> span_ids;
          return reader->Array([&] {
            double span_id = 0;
            return ReadSpan(reader, &span_id) &&
                   (span_ids.insert(span_id).second ||
                    reader->Fail("a trace records one span id twice"));
          });
        });
      });
    }
    if (key == "classes") {
      has_classes = true;
      return reader->Array([&] {
        double count = -1;
        bool read = reader->Object([&](const std::string& field) {
          if (field == "count") {
            return NumberOrMinusOne(reader, &count);
          }
          if (field != "exemplars") {
            return reader->Skip();
          }
          return reader->Array([&] {
            double id = 0;
            return reader->Number(&id) && (exemplar_ids.insert(id).second ||
                                           reader->Fail("an exemplar id is listed twice"));
          });
        });
        class_counts.push_back(count);
        return read && (count >= 1 || reader->Fail("a trace class has a count below 1"));
      });
    }
    if (key == "window_s") {
      return NumberOrMinusOne(reader, &window_s);
    }
    if (key != "windows") {
      return reader->Skip();
    }
    has_windows = true;
    return reader->Object([&](const std::string& field) {
      if (field == "start_s") {
        return Numbers(reader, &start_s);
      }
      if (field != "counts") {
        return reader->Skip();
      }
      return reader->Array([&] { return Numbers(reader, &rows.emplace_back()); });
    });
  });
  if (!ok || fields == 0) {
    return ok;  // {}: the bench ran no trace collector.
  }
  if (!has_classes || !has_windows) {
    return reader->Fail("traces.classes or traces.windows is missing");
  }
  if (exemplar_ids != trace_ids) {
    return reader->Fail("the classes' exemplar ids are not the exemplar traces' ids");
  }
  if (window_s <= 0) {
    return reader->Fail("traces.window_s is missing or not positive");
  }
  if (rows.size() != start_s.size()) {
    return reader->Fail("traces.windows.counts and traces.windows.start_s differ in length");
  }
  std::vector<double> sums(class_counts.size(), 0);
  for (const std::vector<double>& row : rows) {
    if (row.size() != class_counts.size()) {
      return reader->Fail("a traces.windows.counts row does not have one count per class");
    }
    for (size_t c = 0; c < row.size(); ++c) {
      sums[c] += row[c];
    }
  }
  return sums == class_counts ||
         reader->Fail("a trace class's window counts do not sum to its count");
}

// Reads one availability.faults entry: {"t_ns":<integer >= 0>,"what":<string>}.
bool ReadFault(JsonReader* reader) {
  double t_ns = -1;
  bool has_what = false;
  bool ok = reader->Object([&](const std::string& key) {
    if (key == "t_ns") {
      return reader->Number(&t_ns);
    }
    if (key == "what") {
      has_what = true;
      return reader->String(nullptr);
    }
    return reader->Skip();
  });
  if (!ok) {
    return false;
  }
  if (t_ns < 0 || t_ns != std::floor(t_ns)) {
    return reader->Fail("an availability.faults entry has no integer \"t_ns\"");
  }
  return has_what || reader->Fail("an availability.faults entry has no \"what\"");
}

// Reads the availability section; checks its faults and windows (see the top).
bool ReadAvailability(JsonReader* reader, bool quiesced) {
  std::map<std::string, std::vector<double>> windows;
  bool has_windows = false;
  bool ok = reader->Object([&](const std::string& key) {
    if (key == "faults") {
      return reader->Array([&] { return ReadFault(reader); });
    }
    if (key != "windows") {
      return reader->Skip();
    }
    has_windows = true;
    return reader->Object(
        [&](const std::string& name) { return Numbers(reader, &windows[name]); });
  });
  if (!ok || !has_windows) {
    return ok;
  }
  const std::vector<double>& seconds = windows["second"];
  for (const char* name : {"offered", "answered", "unanswered", "yield", "harvest"}) {
    if (windows.count(name) == 0 || windows[name].size() != seconds.size()) {
      return reader->Fail(std::string("availability.windows.") + name +
                          " is missing or differs in length from availability.windows.second");
    }
  }
  for (size_t i = 0; i < seconds.size(); ++i) {
    double offered = windows["offered"][i];
    double resolved = windows["answered"][i] + windows["unanswered"][i];
    std::string where = "availability window " + std::to_string(i);
    for (const char* name : {"yield", "harvest"}) {
      double x = windows[name][i];
      if (x < 0 || x > 1) {
        return reader->Fail(where + " has a " + name + " outside [0, 1]");
      }
    }
    if (resolved > offered) {
      return reader->Fail(where + " has answered + unanswered above offered");
    }
    if (quiesced && resolved != offered) {
      return reader->Fail(where + " has offers neither answered nor unanswered");
    }
  }
  return true;
}

// Checks the artifact's schema. Returns what is wrong with it, or "".
std::string Validate(const std::string& text, bool quiesced, ProfileFacts* profile) {
  JsonReader reader(text);
  std::set<std::string> seen;
  double schema_version = -1;
  std::string bench_name;
  bool has_time_ns = false;
  bool ok = reader.Object([&](const std::string& key) {
    seen.insert(key);
    if (key == "profile") {
      return ReadProfile(&reader, profile);
    }
    if (key == "timeseries") {
      return ReadTimeseries(&reader);
    }
    if (key == "traces") {
      return ReadTraces(&reader);
    }
    if (key == "availability") {
      return ReadAvailability(&reader, quiesced);
    }
    if (key != "meta") {
      return reader.Skip();
    }
    return reader.Object([&](const std::string& field) {
      if (field == "schema_version") {
        return NumberOrMinusOne(&reader, &schema_version);
      }
      if (field == "bench") {
        bench_name.clear();
        return reader.Peek() == '"' ? reader.String(&bench_name) : reader.Skip();
      }
      has_time_ns |= field == "time_ns";
      return reader.Skip();
    });
  });
  if (!ok) {
    return "malformed JSON or section layout: " + reader.error();
  }
  if (!reader.AtEnd()) {
    return "trailing content after top-level object";
  }
  for (const char* section : sns::kArtifactSections) {
    if (seen.count(section) == 0) {
      return std::string("missing top-level section \"") + section + "\"";
    }
  }
  if (schema_version != sns::kArtifactSchemaVersion) {
    return "meta or meta.schema_version is missing, or the version is not " +
           std::to_string(sns::kArtifactSchemaVersion);
  }
  if (bench_name.empty()) {
    return "meta.bench is missing or empty";
  }
  return has_time_ns ? "" : "meta.time_ns is missing";
}

}  // namespace

int main(int argc, char** argv) {
  double min_coverage = -1;
  double max_overhead = -1;
  bool quiesced = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quiesced") {
      quiesced = true;
    } else if (arg == "--min-profile-coverage" && i + 1 < argc) {
      min_coverage = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-profile-overhead" && i + 1 < argc) {
      max_overhead = std::strtod(argv[++i], nullptr);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--quiesced] [--min-profile-coverage X] [--max-profile-overhead Y] "
                 "BENCH_<name>.json [...]\n",
                 argv[0]);
    return 2;
  }
  int bad = 0;
  for (const char* path : paths) {
    std::string text;
    if (!sns::ReadFile(path, &text)) {
      std::fprintf(stderr, "%s: MISSING (bench did not emit its artifact)\n", path);
      ++bad;
      continue;
    }
    ProfileFacts profile;
    std::string error = Validate(text, quiesced, &profile);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path, error.c_str());
      ++bad;
      continue;
    }
    if (min_coverage >= 0 || max_overhead >= 0) {
      if (!profile.enabled) {
        std::fprintf(stderr, "%s: PROFILE GATE: profiler was not enabled for this run\n",
                     path);
        ++bad;
        continue;
      }
      if (min_coverage >= 0 && profile.coverage < min_coverage) {
        std::fprintf(stderr, "%s: PROFILE GATE: coverage %.4f < required %.4f\n", path,
                     profile.coverage, min_coverage);
        ++bad;
        continue;
      }
      if (max_overhead >= 0 && profile.self_overhead > max_overhead) {
        std::fprintf(stderr, "%s: PROFILE GATE: self-overhead %.4f > allowed %.4f\n",
                     path, profile.self_overhead, max_overhead);
        ++bad;
        continue;
      }
      std::printf("%s: profile ok (coverage %.3f, self-overhead %.4f)\n", path,
                  profile.coverage, profile.self_overhead);
    }
    std::printf("%s: ok (%zu bytes)\n", path, text.size());
  }
  return bad == 0 ? 0 : 1;
}

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
#include <cstdio>
#include <cstdlib>
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

// Checks the artifact's schema. Returns what is wrong with it, or "".
std::string Validate(const std::string& text, ProfileFacts* profile) {
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
    return "malformed JSON: " + reader.error();
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
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--min-profile-coverage" && i + 1 < argc) {
      min_coverage = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-profile-overhead" && i + 1 < argc) {
      max_overhead = std::strtod(argv[++i], nullptr);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--min-profile-coverage X] [--max-profile-overhead Y] "
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
    std::string error = Validate(text, &profile);
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

// Baseline-diff gate for BENCH artifacts (the perf side of matrix-smoke).
//
//   bench_diff <baseline.json | baseline-dir> <BENCH_*.json ...>
//
// Each artifact must carry a "matrix" section ({"cell":...,"metrics":{...}},
// emitted by src/scenario); its metrics are compared against the committed
// baseline — <baseline-dir>/<cell>.json, or the single baseline file — under
// the per-metric tolerance rules in kGates below. Other metrics in the
// baseline (sent, completed, ...) are informational. Any regression, gated
// metric missing from the artifact or the baseline, NaN/Inf value, or
// cell-name mismatch exits nonzero. Like validate_bench_artifact, this is
// dependency-free: it reads JSON with the strict reader in json_reader.h.

#include <sys/stat.h>

#include <cstdio>
#include <map>
#include <string>

#include "json_reader.h"

namespace {

using sns::JsonReader;

struct MetricsDoc {
  std::string cell;
  std::map<std::string, double> metrics;
  double schema_version = -1;
};

// Reads an object carrying "cell" / "metrics" / "schema_version"; other
// members are skipped. Every metric value must be a finite number.
bool ReadCapture(JsonReader* reader, MetricsDoc* doc) {
  return reader->Object([&](const std::string& key) {
    if (key == "cell") {
      return doc->cell.empty() ? reader->String(&doc->cell)
                               : reader->Fail("duplicate \"cell\"");
    }
    if (key == "metrics") {
      return reader->Object([&](const std::string& metric) {
        return reader->Number(&doc->metrics[metric]);
      });
    }
    if (key == "schema_version") {
      return reader->Number(&doc->schema_version);
    }
    return reader->Skip();
  });
}

// Reads a document's capture object and returns what is wrong with it, or "".
// from_artifact: capture the top-level "matrix" section and skip the rest of
// the (large) artifact. Otherwise the document itself is the capture object
// (the baseline-file layout).
std::string ReadDoc(const std::string& text, bool from_artifact, MetricsDoc* doc) {
  JsonReader reader(text);
  bool saw_matrix = false;
  bool ok = !from_artifact ? ReadCapture(&reader, doc)
                           : reader.Object([&](const std::string& key) {
                               if (key != "matrix") {
                                 return reader.Skip();
                               }
                               saw_matrix = true;
                               return ReadCapture(&reader, doc);
                             });
  if (!ok) {
    return reader.error();
  }
  if (from_artifact && !saw_matrix) {
    return "artifact has no \"matrix\" section";
  }
  if (doc->cell.empty()) {
    return "missing \"cell\"";
  }
  if (!from_artifact && doc->schema_version != 2) {
    return "schema_version is not 2 (re-bless with tools/bless_baseline)";
  }
  return doc->metrics.empty() ? "missing or empty \"metrics\"" : "";
}

// The gated metrics: the current value must stay at or below (upper) or at or
// above base * scale + offset, so every metric may improve freely.
struct Gate {
  const char* metric;
  double scale;
  double offset;
  bool upper;
};
constexpr Gate kGates[] = {
    // goodput and yield are ratios of integer request counts, so runs are
    // exactly reproducible and a purely relative floor gates even a tiny base:
    // a 20% regression trips in every cell, saturated ones included.
    {"goodput", 0.90, 0, false},
    // Mean answer completeness: a shift toward degraded answers trips it.
    {"harvest", 0.90, 0, false},
    {"hit_rate", 1.0, -0.10, false},
    {"latency_p50_s", 1.35, 0.05, true},
    {"latency_p99_s", 1.35, 0.10, true},
    {"recovery_s", 1.5, 2.0, true},
    {"yield", 0.90, 0, false},
};

bool IsDirectory(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

int DiffOne(const std::string& baseline_arg, bool baseline_is_dir,
            const std::string& artifact_path) {
  std::string text;
  if (!sns::ReadFile(artifact_path.c_str(), &text)) {
    std::fprintf(stderr, "%s: MISSING\n", artifact_path.c_str());
    return 1;
  }
  MetricsDoc current;
  std::string error = ReadDoc(text, /*from_artifact=*/true, &current);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: INVALID: %s\n", artifact_path.c_str(), error.c_str());
    return 1;
  }

  std::string baseline_path =
      baseline_is_dir ? baseline_arg + "/" + current.cell + ".json" : baseline_arg;
  std::string baseline_text;
  if (!sns::ReadFile(baseline_path.c_str(), &baseline_text)) {
    std::fprintf(stderr, "%s: no baseline %s (bless it with tools/bless_baseline)\n",
                 artifact_path.c_str(), baseline_path.c_str());
    return 1;
  }
  MetricsDoc baseline;
  error = ReadDoc(baseline_text, /*from_artifact=*/false, &baseline);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: INVALID baseline: %s\n", baseline_path.c_str(),
                 error.c_str());
    return 1;
  }
  if (baseline.cell != current.cell) {
    std::fprintf(stderr, "%s: cell \"%s\" does not match baseline cell \"%s\"\n",
                 artifact_path.c_str(), current.cell.c_str(), baseline.cell.c_str());
    return 1;
  }

  int regressions = 0;
  std::printf("%s (cell %s):\n", artifact_path.c_str(), current.cell.c_str());
  for (const Gate& gate : kGates) {
    auto base = baseline.metrics.find(gate.metric);
    auto it = current.metrics.find(gate.metric);
    if (base == baseline.metrics.end() || it == current.metrics.end()) {
      std::printf("  %-16s REGRESSION: gated metric missing from %s\n", gate.metric,
                  base == baseline.metrics.end() ? "baseline" : "artifact");
      ++regressions;
      continue;
    }
    double limit = base->second * gate.scale + gate.offset;
    bool ok = gate.upper ? it->second <= limit : it->second >= limit;
    std::printf("  %-16s %11.6g vs base %11.6g (need %s %.6g) %s\n", gate.metric,
                it->second, base->second, gate.upper ? "<=" : ">=", limit,
                ok ? "ok" : "REGRESSION");
    if (!ok) {
      ++regressions;
    }
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <baseline.json|baseline-dir> <BENCH_*.json ...>\n",
                 argv[0]);
    return 2;
  }
  std::string baseline_arg = argv[1];
  bool baseline_is_dir = IsDirectory(baseline_arg);
  int bad = 0;
  for (int i = 2; i < argc; ++i) {
    bad += DiffOne(baseline_arg, baseline_is_dir, argv[i]);
  }
  if (bad > 0) {
    std::fprintf(stderr, "%d artifact(s) regressed\n", bad);
    return 1;
  }
  return 0;
}

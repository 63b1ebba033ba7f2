// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench/ binary regenerates one table or figure from the paper's evaluation
// (§4) and prints it in a comparable layout, with the paper's reported numbers
// alongside for reference. Absolute values depend on the simulated hardware
// calibration; the claims under test are the *shapes*: who saturates first, where
// thresholds fall, what scales linearly.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/critical_path.h"
#include "src/obs/perfetto.h"
#include "src/obs/profiler.h"
#include "src/services/transend/transend.h"
#include "src/util/strings.h"
#include "src/workload/trace.h"

namespace sns {
namespace benchutil {

inline void Header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

// A universe of nearly-uniform ~10 KB JPEGs, as prepared for the scalability
// experiment: "a trace file that repeatedly requested a fixed number of JPEG
// images, all approximately 10KB in size" (§4.6).
inline ContentUniverseConfig FixedJpegUniverse(int64_t urls) {
  ContentUniverseConfig config;
  config.url_count = urls;
  config.sizes.gif_fraction = 0.0;
  config.sizes.html_fraction = 0.0;
  config.sizes.jpeg_fraction = 1.0;
  config.sizes.jpeg_mu = 9.2335;  // exp(mu + s^2/2) ~ 10240 B
  config.sizes.jpeg_sigma = 0.05;
  config.sizes.error_page_fraction = 0.0;
  return config;
}

// Writes the run's machine-readable observability artifact (the uniform
// BENCH_<name>.json schema every bench binary emits):
//   {"meta":{"schema_version":2,"bench":..,"time_ns":..},
//    "snapshot":..,       monitor JSON (every registry metric, components, alarms)
//    "timeseries":..,     columnar ring-buffer samples from the flight recorder
//    "critical_path":..,  per-stage latency decomposition over retained traces
//    "availability":..,   harvest/yield ledger: windowed yield+harvest, faults,
//                         recovery gaps (DESIGN.md §15)
//    "profile":..,        wall-clock zone profiler snapshot (empty object fields
//                         when the profiler was not enabled for the run)
//    "traces":...}        raw span trees
// Returns false if the file could not be opened.
inline bool DumpRunArtifact(SnsSystem* system, const std::string& path,
                            const std::string& bench_name) {
  MonitorProcess* monitor = system->monitor();
  // Without a monitor (with_monitor=false topologies) fall back to the bare
  // registry so the artifact still carries the metrics.
  std::string snapshot = monitor != nullptr ? monitor->ExportJson()
                                            : system->metrics()->RenderJson();
  std::string timeseries =
      system->recorder() != nullptr ? system->recorder()->ToJson() : "{}";
  CriticalPathSummary paths = CriticalPathSummary::FromCollector(*system->tracer());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(
      f,
      "{\"meta\":{\"schema_version\":2,\"bench\":\"%s\",\"time_ns\":%lld},"
      "\"snapshot\":%s,\"timeseries\":%s,\"critical_path\":%s,"
      "\"availability\":%s,\"profile\":%s,\"traces\":%s}\n",
      JsonEscape(bench_name).c_str(), static_cast<long long>(system->sim()->now()),
      snapshot.c_str(), timeseries.c_str(), paths.ToJson().c_str(),
      system->availability()->ToJson(system->event_log()).c_str(),
      Profiler::Get().ToJson().c_str(), system->tracer()->ToJson().c_str());
  std::fclose(f);
  return true;
}

// Emits the run artifact under the uniform name "BENCH_<name>.json" in the
// current directory, and a Chrome-trace timeline ("BENCH_<name>.trace.json",
// openable in ui.perfetto.dev) alongside it.
inline bool DumpBenchArtifact(SnsSystem* system, const std::string& bench_name) {
  bool ok = DumpRunArtifact(system, "BENCH_" + bench_name + ".json", bench_name);
  std::string trace = ExportChromeTrace(*system->tracer(), system->event_log());
  std::FILE* f = std::fopen(("BENCH_" + bench_name + ".trace.json").c_str(), "w");
  if (f != nullptr) {
    std::fputs(trace.c_str(), f);
    std::fclose(f);
  } else {
    ok = false;
  }
  if (ok) {
    std::printf("\nartifacts: BENCH_%s.json, BENCH_%s.trace.json\n", bench_name.c_str(),
                bench_name.c_str());
  }
  return ok;
}

// Acceptance check for the critical-path decomposition: for every retained
// completed request, the per-stage sums must equal the end-to-end latency within
// `tolerance` (default 1%). Returns the number of requests checked, or -1 on any
// violation (after printing it).
inline int64_t CheckStageSums(SnsSystem* system, double tolerance = 0.01) {
  int64_t checked = 0;
  bool violated = false;
  auto check = [&](uint64_t trace_id, const std::vector<const SpanRecord*>& spans) {
    if (violated) {
      return;
    }
    auto path = AnalyzeTrace(spans);
    if (!path.has_value() || path->total <= 0) {
      return;
    }
    SimDuration diff = path->StageSum() - path->total;
    if (diff < 0) diff = -diff;
    if (static_cast<double>(diff) > tolerance * static_cast<double>(path->total)) {
      std::printf("STAGE SUM MISMATCH trace=%llu total=%lld sum=%lld\n",
                  static_cast<unsigned long long>(trace_id),
                  static_cast<long long>(path->total),
                  static_cast<long long>(path->StageSum()));
      violated = true;
      return;
    }
    ++checked;
  };
  system->tracer()->ForEachTrace(check);
  return violated ? -1 : checked;
}

// Issues every universe URL once and waits for fetches to land in the cache,
// eliminating miss penalty from the measurement (as the paper did).
inline void PrewarmCache(TranSendService* service, PlaybackEngine* client) {
  for (int64_t i = 0; i < service->universe()->url_count(); ++i) {
    TraceRecord record;
    record.user_id = "warmup";
    record.url = service->universe()->UrlAt(i);
    client->SendRequest(record);
    service->sim()->RunFor(Milliseconds(200));
  }
  service->sim()->RunFor(Seconds(130));  // Let the slowest origin fetches finish.
  client->ResetStats();
}

}  // namespace benchutil
}  // namespace sns

#endif  // BENCH_BENCH_COMMON_H_

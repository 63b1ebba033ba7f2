// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench/ binary regenerates one table or figure from the paper's evaluation
// (§4) and prints it in a comparable layout, with the paper's reported numbers
// alongside for reference. Absolute values depend on the simulated hardware
// calibration; the claims under test are the *shapes*: who saturates first, where
// thresholds fall, what scales linearly.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/critical_path.h"
#include "src/services/transend/transend.h"
#include "src/sns/worker_process.h"
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

// Emits the run artifact (src/obs/artifact.h) as "BENCH_<name>.json" in the
// current directory, or exits with status 1, so no later check reads a stale
// artifact from an earlier run. tools/render_trace draws its timeline.
inline void DumpBenchArtifact(SnsSystem* system, const std::string& bench_name) {
  std::string path = "BENCH_" + bench_name + ".json";
  errno = 0;
  if (!WriteRunArtifact(path, bench_name, system->sim()->now(), system->ArtifactSections())) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 errno != 0 ? std::strerror(errno) : "missing or misordered section");
    std::exit(1);
  }
  std::printf("\nartifact: %s\n", path.c_str());
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

// The common bench preamble: a playback engine seeded `seed`, 3 s for the first
// manager beacons to reach the front ends, then a warm cache.
inline PlaybackEngine* PrewarmedClient(TranSendService* service, uint64_t seed) {
  PlaybackEngine* client = service->AddPlaybackEngine(seed);
  service->sim()->RunFor(Seconds(3));
  PrewarmCache(service, client);
  return client;
}

// Max minus min queue length over the live distillers, or a negative value when
// fewer than two are live.
inline double QueueSpread(SnsSystem* system) {
  auto workers = system->live_workers(kJpegDistillerType);
  if (workers.size() < 2) {
    return -1;
  }
  double lo = workers[0]->QueueLength();
  double hi = lo;
  for (WorkerProcess* worker : workers) {
    lo = std::min(lo, worker->QueueLength());
    hi = std::max(hi, worker->QueueLength());
  }
  return hi - lo;
}

// True when the command line carries `--short` (the CI smoke mode).
inline bool ShortMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace benchutil
}  // namespace sns

#endif  // BENCH_BENCH_COMMON_H_

// TranSend, assembled: the scalable Web distillation proxy of paper §3.
//
// This class is the "service author" side of the layered architecture: it
// configures an SnsSystem with the TranSend topology (front ends on heavier-kernel
// NICs, four cache nodes, the dialup-facing origin gateway), registers the three
// distillers, installs the dispatch logic, and provides playback engines standing
// in for the 25,000-user dialup population. Default constants are calibrated to the
// paper's measurements — see the field comments.

#ifndef SRC_SERVICES_TRANSEND_TRANSEND_H_
#define SRC_SERVICES_TRANSEND_TRANSEND_H_

#include <memory>
#include <vector>

#include "src/sns/system.h"
#include "src/services/transend/distillers.h"
#include "src/services/transend/transend_logic.h"
#include "src/workload/content_universe.h"
#include "src/workload/origin_server.h"
#include "src/workload/playback.h"

namespace sns {

struct TranSendOptions {
  SnsConfig sns;
  SystemTopology topology;
  TranSendLogicConfig logic;
  SimDuration jpeg_distill_per_kb = kJpegDistillPerKb;
  ContentUniverseConfig universe;
  OriginConfig origin;
};

// Calibrated defaults reproducing the paper's operating points:
//   - one distiller sustains ~23 req/s on ~10 KB JPEG inputs;
//   - one front end's network path saturates near ~75 req/s (TCP/kernel bound);
//   - a cache hit costs ~27 ms including per-request TCP connection setup;
//   - manager beacons 1/s, worker load reports 2/s, spawn threshold H, cooldown D.
TranSendOptions DefaultTranSendOptions();

// The re-distill setup of the §4.6 scalability experiment: the defaults over an
// all-JPEG universe of `url_count` ~10 KB images with distilled-variant caching
// off, so every request re-distills and the worker pool stays load-bearing.
TranSendOptions RedistillOptions(int64_t url_count);

class TranSendService {
 public:
  explicit TranSendService(const TranSendOptions& options = DefaultTranSendOptions());

  // Builds and starts the system (no workers yet: they spawn on demand).
  void Start();

  // Adds a playback engine on a fresh client node. The engine balances across live
  // front ends automatically.
  PlaybackEngine* AddPlaybackEngine(uint64_t seed = 0xCAFE);
  // Variant taking a caller-built config (per-request deadline, timeout, seed);
  // the engine's front-end callback is wired to this service's live FEs.
  PlaybackEngine* AddPlaybackEngine(PlaybackConfig config);

  SnsSystem* system() { return &system_; }
  Simulator* sim() { return system_.sim(); }
  ContentUniverse* universe() { return &universe_; }
  const TranSendOptions& options() const { return options_; }

 private:
  TranSendOptions options_;
  ContentUniverse universe_;
  SnsSystem system_;
  std::vector<ProcessId> playback_pids_;
};

}  // namespace sns

#endif  // SRC_SERVICES_TRANSEND_TRANSEND_H_

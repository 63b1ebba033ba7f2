#include "src/tacc/streaming.h"

#include <algorithm>

#include "src/util/rng.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// Deterministic per-frame timing jitter as a fraction of the frame period
// (models source-side capture jitter; keeps the schedule from being a pure
// comb while staying reproducible).
constexpr double kFrameJitter = 0.15;

}  // namespace

int64_t StreamFramesPerSession(const StreamSessionConfig& config) {
  if (config.duration <= 0) {
    return 0;
  }
  return static_cast<int64_t>(ToSeconds(config.duration) * kStreamFramesPerSecond);
}

int64_t StreamUrlSpace(const StreamSessionConfig& config) {
  return StreamFramesPerSession(config) * static_cast<int64_t>(std::max(config.sessions, 0));
}

std::string StreamUserId(int session) { return StrFormat("stream-s%02d", session); }

std::vector<StreamFrame> GenerateStreamFrames(const StreamSessionConfig& config,
                                              int64_t url_space) {
  std::vector<StreamFrame> frames;
  int64_t per_session = StreamFramesPerSession(config);
  if (per_session <= 0 || config.sessions <= 0) {
    return frames;
  }
  frames.reserve(static_cast<size_t>(per_session) * static_cast<size_t>(config.sessions));
  SimDuration period = Seconds(1.0 / kStreamFramesPerSecond);
  // Sessions start spread evenly across one frame period, which de-phases the
  // per-session clocks the way independent clients would.
  SimDuration stagger = period / config.sessions;
  // Each session's URL block is disjoint so no frame repeats content within a
  // run; the modulo keeps an undersized url_space safe (it degrades to repeats
  // rather than out-of-range indices).
  int64_t block = std::max<int64_t>(url_space / config.sessions, 1);
  for (int s = 0; s < config.sessions; ++s) {
    // Per-session RNG stream: adding/removing a session never re-times the rest.
    Rng rng(config.seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(s + 1)));
    SimTime start = stagger * s;
    for (int64_t f = 0; f < per_session; ++f) {
      StreamFrame frame;
      double jitter = rng.Uniform(-kFrameJitter, kFrameJitter);
      SimDuration offset = static_cast<SimDuration>(static_cast<double>(period) * jitter);
      frame.at = std::max<SimTime>(start + period * f + offset, 0);
      frame.session = s;
      frame.frame = f;
      frame.url_index = (static_cast<int64_t>(s) * block + f) % std::max<int64_t>(url_space, 1);
      frames.push_back(frame);
    }
  }
  std::sort(frames.begin(), frames.end(), [](const StreamFrame& a, const StreamFrame& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.session != b.session) return a.session < b.session;
    return a.frame < b.frame;
  });
  return frames;
}

}  // namespace sns

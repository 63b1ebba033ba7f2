// Stream-oriented TACC workload: long-lived sessions with per-frame deadlines.
//
// The request/response shapes the rest of the harness plays (replay, Zipf,
// flash crowd) arrive, complete, and leave; a *stream* session never leaves.
// Following the Stanford stream-oriented cluster framework (PAPERS.md,
// cs/0504051), each session emits frames at a fixed rate for the whole run,
// every frame is fresh content that must be pulled from the session's source
// and chained through the distillers, and a frame is only worth delivering
// while its per-frame deadline holds — goodput is frames meeting deadline, not
// frames eventually answered. This stresses the load balancer in ways
// request/response never does: offered load never decays when the cluster
// lags (sessions do not back off), arrivals are phase-structured rather than
// Poisson, and a burst of deadline misses is user-visible as a glitch even
// when every frame is eventually "answered".
//
// This file is deliberately free of cluster/workload dependencies: it produces
// a deterministic frame schedule (times, session ids, URL indices) that the
// scenario runner maps onto client requests. The same config + seed always
// yields byte-identical schedules, so matrix cells built on it are replayable.

#ifndef SRC_TACC_STREAMING_H_
#define SRC_TACC_STREAMING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace sns {

// Frame rate of every session.
inline constexpr double kStreamFramesPerSecond = 4.0;

struct StreamSessionConfig {
  int sessions = 8;
  // Per-frame deadline budget: a frame not delivered within this of its emit
  // time is a goodput loss even if an answer eventually arrives.
  SimDuration frame_deadline = Milliseconds(2500);
  // Total length of every session (sessions are long-lived: they all span the
  // whole window).
  SimDuration duration = Seconds(40);
  uint64_t seed = 0x57EA43;
};

// One frame of one session, in emit order.
struct StreamFrame {
  SimTime at = 0;       // Emit time, relative to the start of the stream window.
  int session = 0;      // 0-based session index.
  int64_t frame = 0;    // 0-based frame index within the session.
  int64_t url_index = 0;  // Index into the content universe for this frame.
};

// Frames per session implied by `duration` and kStreamFramesPerSecond.
int64_t StreamFramesPerSession(const StreamSessionConfig& config);

// Smallest universe that gives every frame of every session a distinct URL
// (frames are fresh content; a looped clip would turn the workload back into a
// cache test).
int64_t StreamUrlSpace(const StreamSessionConfig& config);

// The session's stable client identity ("stream-s07"): long-lived, so per-user
// state (profiles, FE caches) sees one user per session for the whole run.
std::string StreamUserId(int session);

// Generates the full schedule, sorted by emit time (ties broken by session then
// frame, so the order is total and deterministic). Each session s walks its own
// disjoint block of `url_space` URLs; url_space must be >= StreamUrlSpace().
std::vector<StreamFrame> GenerateStreamFrames(const StreamSessionConfig& config,
                                              int64_t url_space);

// Goodput accounting for a stream run: frames on time / frames emitted.
struct StreamGoodput {
  int64_t frames = 0;
  int64_t on_time = 0;
  double goodput() const {
    return frames > 0 ? static_cast<double>(on_time) / static_cast<double>(frames) : 0.0;
  }
};

}  // namespace sns

#endif  // SRC_TACC_STREAMING_H_

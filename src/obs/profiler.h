// Low-overhead wall-clock zone profiler for the engine hot paths.
//
// Everything else in src/obs measures *simulated* time. This profiler measures
// *host* CPU wall-clock — where the engine itself burns cycles — which is what
// ROADMAP items 1 and 2 need ("intrusive per-process queues if profiles still
// show them"; "bench the manager ... until beacon fan-in or spawn-policy scans
// saturate"). Spans and critical paths tell you where the cluster spends sim
// time; zones tell you where the simulator spends real time.
//
// Model: a static registry of named zones (registered once per instrumentation
// site via SNS_PROFILE_ZONE), RAII scope objects, and thread-local accumulators
// merged on snapshot. Attribution is nesting-exact: a zone's `total` is the
// wall time between its outermost entry and exit (re-entrant inner frames do
// not double-count), and its `self` is total minus the time attributed to
// nested zones, so self sums are disjoint and comparable: the zones' summed
// self time equals the root zones' time exactly.
//
// Cost discipline: disabled (the default), a zone entry is one predicted
// branch — zero accumulation, safe to leave compiled into release paths.
// Enabled, every entry pays an exact count increment; clock reads are taken
// on one entry in 2^stride_log2 on average (inside a timed parent), and the
// observed duration (less the calibrated cost of timing an empty zone) is
// scaled by the frame's weight, below, so totals remain unbiased estimates.
// Hot leaf zones (timer-wheel schedule/cancel at ~100 ns/op) register with a
// stride so two clock_gettime calls are amortized away; zones registered with
// stride 0 are timed on every entry inside a timed parent and their self/total
// attribution is exact there, not statistical. Enable() calibrates the
// per-entry cost of both paths, so SelfOverhead() reports a *measured* bound
// (calibrated cost x exact entry counts / measured wall window) — the number
// the profile-smoke CI gate holds under 3%.
//
// Strided zones time their entries at seeded pseudo-random gaps, uniform on
// [1, 2^(k+1) - 1] (mean 2^k). A fixed every-2^k-th stride would lock onto a
// loop whose period divides 2^k and time the same phase of it every time; a
// random gap lands on every phase alike. Each timed entry stands for its gap:
// itself and the untimed entries before the zone's next timed one. The first
// timed entry comes after a delay drawn so that the first entry, often the
// coldest, is timed no more often than any other.
//
// Strided attribution samples subtrees: an entry is timed only when its
// parent frame is timed (and its own gap has run out), and a timed frame
// stands for `weight` entries, the product of its own and its timed
// ancestors' gaps. Its self time is its duration less its timed children's
// (each scaled by the child's own gap), times its weight, and may go negative
// for one frame when a child's scaled estimate overshoots it; clamping it at
// zero would bias the parent upward. Weighted this way, the zones' self times
// sum to exactly the root zones' time, so summed self time equals coverage.
// An untimed entry of a zone seen to have nested zones pushes a placeholder
// frame (no clock reading), so nothing inside it is timed or charged to its
// parent; leaf zones' untimed entries stay a bare count.
//
// Single-threaded simulators are the design center: toggling Enable/Disable
// while zones are open on another thread is not supported.

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace sns {

namespace prof_internal {

constexpr int kMaxZones = 128;
constexpr int kMaxDepth = 64;

struct Frame {
  int zone;
  int64_t start_ns;  // -1 for an untimed entry's placeholder.
  int64_t child_ns;  // Nested zones' time, each scaled by its own gap.
  int64_t gap;       // Entries of its zone this frame stands for.
  int64_t weight;    // Entries this frame stands for: the product of the
                     // gaps of it and its timed ancestors.
};

struct ThreadState {
  int64_t count[kMaxZones] = {};        // Exact entries (every entry counts).
  int64_t timed[kMaxZones] = {};        // Entries that took clock readings.
  int64_t total_ns[kMaxZones] = {};     // Scaled; outermost frames only.
  int64_t self_ns[kMaxZones] = {};      // Scaled; total minus nested zones.
  int64_t root_ns[kMaxZones] = {};      // Scaled; frames entered at stack depth 0.
  int32_t live_depth[kMaxZones] = {};   // Open timed frames per zone (re-entrancy).
  // Entries left before the zone's next timed one; due once it reaches 0.
  // The zeroed state makes the first entry call Push, which draws the delay.
  int64_t countdown[kMaxZones] = {};
  uint64_t gap_rng = 0x9E3779B97F4A7C15ull;  // xorshift64 state: the gaps are seeded.
  Frame stack[kMaxDepth];
  int stack_depth = 0;
};

extern bool g_enabled;
extern thread_local ThreadState* g_tls;
extern uint64_t g_stride_mask[kMaxZones];  // (1 << stride_log2) - 1 per zone.
// Set once a timed frame of the zone has had a timed zone nested inside it.
// Only such zones push placeholder frames on untimed entries.
extern bool g_has_children[kMaxZones];

// Registers this thread's state with the profiler (first zone entry per thread).
ThreadState* TlsSlow();

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace prof_internal

class Profiler {
 public:
  static Profiler& Get();

  // Registers (or finds) the zone named `name`. Idempotent by name: the first
  // registration's stride wins. stride_log2 > 0 times one entry in 2^k on
  // average, at pseudo-random gaps; 0 times every entry (exact attribution).
  // Returns the zone id.
  int RegisterZone(const char* name, int stride_log2 = 0);

  static bool enabled() { return prof_internal::g_enabled; }
  // Turns collection on and calibrates the per-entry cost model (untimed and
  // timed paths) used by SelfOverheadNs(). Accumulators are reset.
  void Enable();
  void Disable();
  // Zeroes accumulators and the measurement window; registrations survive.
  void Reset();

  // Brackets the wall-clock window Coverage()/SelfOverhead() are computed
  // against. Begin/End may be called repeatedly; windows accumulate.
  void BeginMeasurement();
  void EndMeasurement();
  int64_t measured_wall_ns() const;

  struct ZoneStats {
    std::string name;
    int stride_log2 = 0;
    int64_t count = 0;     // Exact.
    int64_t timed = 0;     // Entries that took clock readings.
    int64_t total_ns = 0;  // Exact for stride 0; scaled estimate otherwise.
    int64_t self_ns = 0;
    int64_t root_ns = 0;   // Portion of total entered at the top of the stack.
  };
  // Merged across threads, ordered by descending self_ns.
  std::vector<ZoneStats> Snapshot() const;

  // Calibrated cost model (ns per entry; 0 until Enable() has calibrated).
  double entry_cost_ns() const { return entry_cost_ns_; }
  double timed_entry_cost_ns() const { return timed_entry_cost_ns_; }
  // Measured bound on profiler-added wall time: calibrated costs x counts.
  int64_t SelfOverheadNs() const;
  // Fraction of the measurement window attributed to named root-level zones.
  double Coverage() const;
  // SelfOverheadNs() as a fraction of the measurement window.
  double SelfOverhead() const;

  // The bench artifact "profile" section. Always valid JSON; when the profiler
  // never ran it is {"enabled":false,...} with empty zones.
  std::string ToJson() const;

 private:
  Profiler() = default;

  double entry_cost_ns_ = 0;
  double timed_entry_cost_ns_ = 0;
};

// RAII zone scope. The constructor argument is a zone id from RegisterZone.
class ProfileZone {
 public:
  explicit ProfileZone(int zone) {
    if (__builtin_expect(!prof_internal::g_enabled, 1)) {
      return;
    }
    Enter(zone);
  }
  ~ProfileZone() {
    if (__builtin_expect(t_ == nullptr, 1)) {
      return;
    }
    Exit(t_, zone_);
  }

  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

 private:
  void Enter(int zone) {
    using namespace prof_internal;
    ThreadState* t = g_tls;
    if (__builtin_expect(t == nullptr, 0)) {
      t = TlsSlow();
    }
    ++t->count[zone];
    bool due = --t->countdown[zone] <= 0;
    if (__builtin_expect(!due && !g_has_children[zone], 1)) {
      return;  // Untimed leaf entry: the count was the whole cost.
    }
    if (Push(t, zone, due)) {
      t_ = t;
      zone_ = zone;
    }
  }

  // Pushes a timed frame (when `due` and the parent frame is timed) or a
  // placeholder; false when the stack is too deep to track. A due entry draws
  // the zone's next gap either way. Static, like Exit, so the scope object
  // stays in registers on the untimed path.
  static bool Push(prof_internal::ThreadState* t, int zone, bool due);
  // Pops the frame Push pushed; a timed one is attributed to `zone`.
  static void Exit(prof_internal::ThreadState* t, int zone);

  prof_internal::ThreadState* t_ = nullptr;  // Set when the entry pushed a frame.
  int zone_ = -1;
};

// Declares a zone site: registers the zone once (function-local static) and
// opens an RAII scope covering the rest of the enclosing block.
#define SNS_PROF_CONCAT_(a, b) a##b
#define SNS_PROF_CONCAT(a, b) SNS_PROF_CONCAT_(a, b)
#define SNS_PROFILE_ZONE(name) SNS_PROFILE_ZONE_STRIDE(name, 0)
#define SNS_PROFILE_ZONE_STRIDE(name, stride_log2)                        \
  static const int SNS_PROF_CONCAT(sns_prof_zone_id_, __LINE__) =         \
      ::sns::Profiler::Get().RegisterZone((name), (stride_log2));         \
  ::sns::ProfileZone SNS_PROF_CONCAT(sns_prof_scope_, __LINE__)(          \
      SNS_PROF_CONCAT(sns_prof_zone_id_, __LINE__))

// Chrome-trace counter-track events ("C" phase) for every zone with nonzero
// self time, suffixed with a trailing comma when non-empty — ready to splice
// into ExportChromeTrace's event stream. Empty when the profiler never ran.
std::string ProfilerCounterTrackJson();

}  // namespace sns

#endif  // SRC_OBS_PROFILER_H_

#include "src/obs/profiler.h"

#include <algorithm>
#include <mutex>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace sns {

namespace prof_internal {

bool g_enabled = false;
thread_local ThreadState* g_tls = nullptr;
uint64_t g_stride_mask[kMaxZones] = {};
bool g_has_children[kMaxZones] = {};

namespace {

// Registry + thread-state roster, guarded by one mutex. Zone registration and
// thread attach are rare; the hot path touches only g_tls / g_stride_mask.
struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  std::vector<int> strides;
  std::vector<ThreadState*> threads;
};

Registry& Reg() {
  static Registry* r = new Registry;  // Leaked: zones outlive static dtors.
  return *r;
}

}  // namespace

ThreadState* TlsSlow() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (g_tls == nullptr) {
    g_tls = new ThreadState;  // Leaked with the registry; threads are few.
    reg.threads.push_back(g_tls);
  }
  return g_tls;
}

}  // namespace prof_internal

using prof_internal::Frame;
using prof_internal::kMaxZones;
using prof_internal::NowNs;
using prof_internal::Reg;
using prof_internal::ThreadState;

namespace {

// Measurement window accumulation (single-writer: the driving thread).
int64_t g_window_accum_ns = 0;
int64_t g_window_open_at = -1;

// Calibration scratch zone ids (registered lazily inside Enable()).
int g_calib_untimed = -1;
int g_calib_timed = -1;

// Mean duration an empty timed zone measures (the clock reading and the
// bookkeeping between the two readings). Exit subtracts it from every timed
// frame: otherwise a strided zone of ~20 ns operations reports that overhead
// scaled by its stride, and its parent's self time goes negative by as much.
int64_t g_timed_bias_ns = 0;

// The next 32 pseudo-random bits of the thread's gap stream (xorshift64).
uint64_t NextRandom32(ThreadState* t) {
  uint64_t x = t->gap_rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  t->gap_rng = x;
  return x >> 32;
}

// Gaps are uniform on [1, span], span = 2^(k+1) - 1 (mean 2^k); 1 at stride 0.
uint64_t GapSpan(int zone) { return 2 * prof_internal::g_stride_mask[zone] + 1; }

// Draws the number of entries until the zone's next timed one.
int64_t DrawGap(ThreadState* t, int zone) {
  return 1 + static_cast<int64_t>((NextRandom32(t) * GapSpan(zone)) >> 32);
}

// Draws which of a zone's first entries is its first timed one, from the
// gaps' equilibrium distribution: P(d) falls linearly from d = 1 to d = span,
// which the smaller of two uniform draws matches to within 1/span. Every
// entry, the first included, is then timed with the same chance; always
// timing the first, often the coldest, entry and scaling it by a whole gap
// overstates the zone.
int64_t DrawFirstDelay(ThreadState* t, int zone) {
  uint64_t u = std::min(NextRandom32(t), NextRandom32(t));
  return 1 + static_cast<int64_t>((u * GapSpan(zone)) >> 32);
}

}  // namespace

bool ProfileZone::Push(ThreadState* t, int zone, bool due) {
  using namespace prof_internal;
  // A countdown below zero is the zone's first entry on this thread (Enter
  // took it down from the zeroed state; a timed entry sets it to a gap >= 1).
  if (due && t->countdown[zone] < 0) {
    int64_t delay = DrawFirstDelay(t, zone);
    t->countdown[zone] = delay - 1;
    due = delay == 1;
  }
  int64_t gap = 0;
  if (due) {
    gap = DrawGap(t, zone);
    t->countdown[zone] = gap;
  }
  if (t->stack_depth >= kMaxDepth) {
    return false;  // Too deep to track: counted only.
  }
  const Frame* parent = t->stack_depth > 0 ? &t->stack[t->stack_depth - 1] : nullptr;
  Frame& f = t->stack[t->stack_depth++];
  f.zone = zone;
  f.child_ns = 0;
  // Only a timed frame's subtree is sampled: under a placeholder nothing is.
  if (!due || (parent != nullptr && parent->start_ns < 0)) {
    f.start_ns = -1;  // Placeholder: no clock reading.
    return true;
  }
  ++t->timed[zone];
  ++t->live_depth[zone];
  f.gap = gap;
  f.weight = (parent != nullptr ? parent->weight : 1) * gap;
  f.start_ns = NowNs();
  return true;
}

void ProfileZone::Exit(ThreadState* t, int zone) {
  using namespace prof_internal;
  Frame f = t->stack[--t->stack_depth];
  if (f.start_ns < 0) {
    return;  // Placeholder.
  }
  int64_t dur = NowNs() - f.start_ns - g_timed_bias_ns;
  if (dur < 0) dur = 0;
  int64_t weighted = dur * f.weight;
  // Negative when a scaled child estimate overshoots this frame; see the
  // header on why the frame is not clamped.
  t->self_ns[zone] += (dur - f.child_ns) * f.weight;
  if (--t->live_depth[zone] == 0) {
    t->total_ns[zone] += weighted;  // Outermost frame only (re-entrancy).
  }
  if (t->stack_depth > 0) {
    Frame& parent = t->stack[t->stack_depth - 1];
    parent.child_ns += dur * f.gap;
    g_has_children[parent.zone] = true;
  } else {
    t->root_ns[zone] += weighted;
  }
}

Profiler& Profiler::Get() {
  static Profiler* p = new Profiler;
  return *p;
}

int Profiler::RegisterZone(const char* name, int stride_log2) {
  prof_internal::Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (size_t i = 0; i < reg.names.size(); ++i) {
    if (reg.names[i] == name) {
      return static_cast<int>(i);
    }
  }
  if (reg.names.size() >= kMaxZones) {
    return static_cast<int>(reg.names.size()) - 1;  // Saturate: misattribute, don't crash.
  }
  if (stride_log2 < 0) stride_log2 = 0;
  if (stride_log2 > 20) stride_log2 = 20;
  int id = static_cast<int>(reg.names.size());
  reg.names.emplace_back(name);
  reg.strides.push_back(stride_log2);
  prof_internal::g_stride_mask[id] = (1ull << stride_log2) - 1;
  return id;
}

void Profiler::Enable() {
  if (g_calib_untimed < 0) {
    // Stride 2^20: the calibration loop exercises the pure count-only path
    // (bar a timed entry or two), which is what the hot zones pay almost always.
    g_calib_untimed = RegisterZone("prof.calibrate_untimed", 20);
    g_calib_timed = RegisterZone("prof.calibrate_timed", 0);
  }
  prof_internal::g_enabled = true;
  g_timed_bias_ns = 0;
  constexpr int kUntimedReps = 1 << 17;
  constexpr int kTimedReps = 1 << 13;
  int64_t t0 = NowNs();
  for (int i = 0; i < kUntimedReps; ++i) {
    ProfileZone z(g_calib_untimed);
  }
  int64_t t1 = NowNs();
  for (int i = 0; i < kTimedReps; ++i) {
    ProfileZone z(g_calib_timed);
  }
  int64_t t2 = NowNs();
  entry_cost_ns_ = static_cast<double>(t1 - t0) / kUntimedReps;
  timed_entry_cost_ns_ = static_cast<double>(t2 - t1) / kTimedReps;
  g_timed_bias_ns = prof_internal::g_tls->total_ns[g_calib_timed] / kTimedReps;
  Reset();
}

void Profiler::Disable() { prof_internal::g_enabled = false; }

void Profiler::Reset() {
  prof_internal::Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadState* t : reg.threads) {
    *t = ThreadState{};
  }
  g_window_accum_ns = 0;
  g_window_open_at = -1;
}

void Profiler::BeginMeasurement() {
  if (g_window_open_at < 0) {
    g_window_open_at = NowNs();
  }
}

void Profiler::EndMeasurement() {
  if (g_window_open_at >= 0) {
    g_window_accum_ns += NowNs() - g_window_open_at;
    g_window_open_at = -1;
  }
}

int64_t Profiler::measured_wall_ns() const {
  int64_t open = g_window_open_at >= 0 ? NowNs() - g_window_open_at : 0;
  return g_window_accum_ns + open;
}

std::vector<Profiler::ZoneStats> Profiler::Snapshot() const {
  prof_internal::Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<ZoneStats> out(reg.names.size());
  for (size_t z = 0; z < reg.names.size(); ++z) {
    out[z].name = reg.names[z];
    out[z].stride_log2 = reg.strides[z];
  }
  for (const ThreadState* t : reg.threads) {
    for (size_t z = 0; z < reg.names.size(); ++z) {
      out[z].count += t->count[z];
      out[z].timed += t->timed[z];
      out[z].total_ns += t->total_ns[z];
      out[z].self_ns += t->self_ns[z];
      out[z].root_ns += t->root_ns[z];
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const ZoneStats& s) { return s.count == 0; }),
            out.end());
  std::sort(out.begin(), out.end(), [](const ZoneStats& a, const ZoneStats& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

int64_t Profiler::SelfOverheadNs() const {
  double ns = 0;
  for (const ZoneStats& z : Snapshot()) {
    ns += static_cast<double>(z.count - z.timed) * entry_cost_ns_ +
          static_cast<double>(z.timed) * timed_entry_cost_ns_;
  }
  return static_cast<int64_t>(ns);
}

double Profiler::Coverage() const {
  int64_t window = measured_wall_ns();
  if (window <= 0) {
    return 0;
  }
  int64_t root = 0;
  for (const ZoneStats& z : Snapshot()) {
    root += z.root_ns;
  }
  return static_cast<double>(root) / static_cast<double>(window);
}

double Profiler::SelfOverhead() const {
  int64_t window = measured_wall_ns();
  if (window <= 0) {
    return 0;
  }
  return static_cast<double>(SelfOverheadNs()) / static_cast<double>(window);
}

std::string Profiler::ToJson() const {
  bool ran = measured_wall_ns() > 0 || !Snapshot().empty();
  std::string zones;
  for (const ZoneStats& z : Snapshot()) {
    if (!zones.empty()) zones += ",";
    zones += StrFormat(
        "{\"name\":\"%s\",\"stride_log2\":%d,\"count\":%lld,\"timed\":%lld,"
        "\"total_ns\":%lld,\"self_ns\":%lld,\"root_ns\":%lld}",
        JsonEscape(z.name).c_str(), z.stride_log2, static_cast<long long>(z.count),
        static_cast<long long>(z.timed), static_cast<long long>(z.total_ns),
        static_cast<long long>(z.self_ns), static_cast<long long>(z.root_ns));
  }
  return StrFormat(
      "{\"enabled\":%s,\"measured_wall_ns\":%lld,\"coverage\":%.6f,"
      "\"self_overhead\":%.6f,\"entry_cost_ns\":%.3f,\"timed_entry_cost_ns\":%.3f,"
      "\"zones\":[%s]}",
      ran ? "true" : "false", static_cast<long long>(measured_wall_ns()),
      Coverage(), SelfOverhead(), entry_cost_ns_, timed_entry_cost_ns_,
      zones.c_str());
}

}  // namespace sns

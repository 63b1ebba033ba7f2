// Tests for the wall-clock zone profiler: exact nested self/total attribution
// at stride 0, re-entrancy, stride sampling (and its immunity to periodic
// loops), the measured self-overhead bound, and the disabled fast path. Everything here measures HOST time, so the
// assertions compare profiler output against clock readings taken around the
// workload, never against fixed wall-clock expectations.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/profiler.h"

namespace sns {
namespace {

// Busy-waits for at least `ns` of host wall-clock (no sleeping: the profiler
// measures CPU-resident wall time and the test wants deterministic-ish spans).
void SpinFor(int64_t ns) {
  int64_t start = prof_internal::NowNs();
  volatile uint64_t sink = 0;
  while (prof_internal::NowNs() - start < ns) {
    sink = sink + 1;
  }
}

const Profiler::ZoneStats* Find(const std::vector<Profiler::ZoneStats>& snap,
                                const std::string& name) {
  for (const Profiler::ZoneStats& z : snap) {
    if (z.name == name) {
      return &z;
    }
  }
  return nullptr;
}

// Host stalls (preemption) only add wall time, and one inside a sampled entry
// is scaled by that entry's gap, so a wall-time estimate of a strided zone is
// judged on the least-stalled of a few identical runs: the one that took the
// least wall time. Reset() reseeds the gaps, so every run times the same
// entries.
struct TimedRun {
  int64_t wall_ns = 0;
  std::vector<Profiler::ZoneStats> snap;
};

TimedRun LeastStalledRun(const std::function<void()>& body) {
  TimedRun best;
  for (int run = 0; run < 9; ++run) {
    Profiler::Get().Reset();
    int64_t start = prof_internal::NowNs();
    body();
    int64_t wall = prof_internal::NowNs() - start;
    if (run == 0 || wall < best.wall_ns) {
      best = {wall, Profiler::Get().Snapshot()};
    }
  }
  return best;
}

// The profiler is process-global; each test turns it on (which calibrates the
// cost model and zeroes accumulators) and leaves it off for the next suite.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Profiler::Get().Enable(); }
  void TearDown() override {
    Profiler::Get().Disable();
    Profiler::Get().Reset();
  }
};

TEST_F(ProfilerTest, NestedAttributionIsExactAtStrideZero) {
  int parent = Profiler::Get().RegisterZone("test.nest.parent");
  int child = Profiler::Get().RegisterZone("test.nest.child");
  {
    ProfileZone p(parent);
    SpinFor(2000000);
    {
      ProfileZone c(child);
      SpinFor(2000000);
    }
    SpinFor(1000000);
  }

  std::vector<Profiler::ZoneStats> snap = Profiler::Get().Snapshot();
  const Profiler::ZoneStats* p = Find(snap, "test.nest.parent");
  const Profiler::ZoneStats* c = Find(snap, "test.nest.child");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(p->count, 1);
  EXPECT_EQ(c->count, 1);
  // Stride-0 zones time every entry from the same clock readings, so the
  // attribution identity holds to the nanosecond — not statistically.
  EXPECT_EQ(p->total_ns, p->self_ns + c->total_ns);
  EXPECT_GE(c->total_ns, 2000000);
  EXPECT_GE(p->self_ns, 3000000);
  // Root attribution: the parent was entered at stack depth 0, the child was
  // not, so coverage counts the parent's full span exactly once.
  EXPECT_EQ(p->root_ns, p->total_ns);
  EXPECT_EQ(c->root_ns, 0);
}

void Recurse(int zone, int depth) {
  ProfileZone z(zone);
  if (depth > 1) {
    Recurse(zone, depth - 1);
  } else {
    SpinFor(2000000);
  }
}

TEST_F(ProfilerTest, ReentrantFramesDoNotDoubleCountTotal) {
  int zone = Profiler::Get().RegisterZone("test.reentrant");
  int64_t t0 = prof_internal::NowNs();
  Recurse(zone, 3);
  int64_t elapsed = prof_internal::NowNs() - t0;

  std::vector<Profiler::ZoneStats> snap = Profiler::Get().Snapshot();
  const Profiler::ZoneStats* z = Find(snap, "test.reentrant");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->count, 3);
  EXPECT_EQ(z->timed, 3);
  // Only the outermost frame lands in total: three nested frames around one
  // 2 ms spin report ~2 ms, never ~6 ms.
  EXPECT_GE(z->total_ns, 2000000);
  EXPECT_LE(z->total_ns, elapsed);
  // Inner frames feed their parent frame's child time, so the per-frame self
  // contributions telescope to exactly the outermost duration.
  EXPECT_EQ(z->self_ns, z->total_ns);
  EXPECT_EQ(z->root_ns, z->total_ns);
}

TEST_F(ProfilerTest, StridedZonesCountExactlyAndTimeEveryKth) {
  int zone = Profiler::Get().RegisterZone("test.strided", /*stride_log2=*/3);
  for (int i = 0; i < 4096; ++i) {
    ProfileZone z(zone);
  }
  std::vector<Profiler::ZoneStats> snap = Profiler::Get().Snapshot();
  const Profiler::ZoneStats* z = Find(snap, "test.strided");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->stride_log2, 3);
  EXPECT_EQ(z->count, 4096);  // Counts are always exact, sampled or not.
  // Clock readings on every 8th entry on average: gaps are uniform on [1, 15],
  // so the timed count is 512 give or take about 12 (one standard deviation).
  EXPECT_GT(z->timed, 512 - 64);
  EXPECT_LT(z->timed, 512 + 64);
}

int64_t SelfSum(const std::vector<Profiler::ZoneStats>& snap) {
  int64_t sum = 0;
  for (const Profiler::ZoneStats& z : snap) sum += z.self_ns;
  return sum;
}

TEST_F(ProfilerTest, StridedChildrenKeepSummedSelfWithinCoverage) {
  // A stride-0 parent whose strided child runs 8x longer on every 8th entry:
  // when a long entry is timed, the child's scaled estimate overshoots its
  // parent frame. Clamping that frame's self time at
  // zero used to count the overshoot twice, so the zones' self times summed
  // past the window. Unclamped, they telescope to exactly the root's time.
  int parent = Profiler::Get().RegisterZone("test.sum.parent");
  int child = Profiler::Get().RegisterZone("test.sum.child", /*stride_log2=*/3);
  Profiler::Get().BeginMeasurement();
  for (int i = 0; i < 64; ++i) {
    ProfileZone p(parent);
    SpinFor(20000);
    ProfileZone c(child);
    SpinFor(i % 8 == 0 ? 400000 : 50000);
  }
  Profiler::Get().EndMeasurement();

  std::vector<Profiler::ZoneStats> snap = Profiler::Get().Snapshot();
  const Profiler::ZoneStats* p = Find(snap, "test.sum.parent");
  const Profiler::ZoneStats* c = Find(snap, "test.sum.child");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->timed, 0);
  EXPECT_EQ(p->self_ns + c->self_ns, p->root_ns);
  int64_t window = Profiler::Get().measured_wall_ns();
  EXPECT_LE(SelfSum(snap), static_cast<int64_t>(Profiler::Get().Coverage() * window) + 1);
  EXPECT_LE(Profiler::Get().Coverage(), 1.0);
}

TEST_F(ProfilerTest, StridedParentsSampleTheirWholeSubtree) {
  // root (stride 0) > middle (stride 2) > leaf (stride 0), uniform work. The
  // leaf is timed only inside the middle's timed entries and stands for as
  // many entries as the middle's gap (4 on average) each time. Timing it
  // inside untimed middle entries too charged it to the root as well, taking
  // about 3/4 of the leaf time off the root's self time a second time.
  int root = Profiler::Get().RegisterZone("test.three.root");
  int middle = Profiler::Get().RegisterZone("test.three.middle", /*stride_log2=*/2);
  int leaf = Profiler::Get().RegisterZone("test.three.leaf");
  std::vector<Profiler::ZoneStats> snap = LeastStalledRun([&] {
    for (int i = 0; i < 256; ++i) {
      ProfileZone r(root);
      SpinFor(10000);
      ProfileZone m(middle);
      SpinFor(10000);
      ProfileZone l(leaf);
      SpinFor(10000);
    }
  }).snap;
  const Profiler::ZoneStats* r = Find(snap, "test.three.root");
  const Profiler::ZoneStats* m = Find(snap, "test.three.middle");
  const Profiler::ZoneStats* l = Find(snap, "test.three.leaf");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(m, nullptr);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->count, 256);
  EXPECT_GT(m->timed, 32);
  EXPECT_EQ(l->timed, m->timed);
  EXPECT_EQ(SelfSum(snap), r->root_ns);
  // Each level did a third of the root's time; allow for spin jitter, but not
  // for a third of the root going missing.
  double third = static_cast<double>(r->root_ns) / 3;
  for (const Profiler::ZoneStats* z : {r, m, l}) {
    EXPECT_GT(static_cast<double>(z->self_ns), 0.7 * third) << z->name;
    EXPECT_LT(static_cast<double>(z->self_ns), 1.3 * third) << z->name;
  }
}

TEST_F(ProfilerTest, StridedSamplingDoesNotLockOntoAPeriodicLoop) {
  // A strided leaf in a loop whose period is its stride: one entry in 8 runs
  // a nested stride-0 zone that spins for 5 us, the other 7 return at once.
  // Timing every 8th entry would time only the slow phase: every timed leaf
  // entry would hold a timed slow frame, and the leaf would read about 8x its
  // true time. Random gaps land on every phase alike.
  int leaf = Profiler::Get().RegisterZone("test.period.leaf", /*stride_log2=*/3);
  int slow = Profiler::Get().RegisterZone("test.period.slow");
  constexpr int kEntries = 65536;
  TimedRun run = LeastStalledRun([&] {
    for (int i = 0; i < kEntries; ++i) {
      ProfileZone l(leaf);
      if (i % 8 == 0) {
        ProfileZone z(slow);
        SpinFor(5000);
      }
    }
  });
  const Profiler::ZoneStats* l = Find(run.snap, "test.period.leaf");
  const Profiler::ZoneStats* z = Find(run.snap, "test.period.slow");
  ASSERT_NE(l, nullptr);
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(l->count, kEntries);
  EXPECT_EQ(z->count, kEntries / 8);
  // Which entries are timed does not depend on the host: about 8192 leaf
  // entries, of which the slow phase holds 1/8 (give or take 0.004).
  ASSERT_GT(l->timed, kEntries / 8 - 512);
  ASSERT_LT(l->timed, kEntries / 8 + 512);
  double slow_share = static_cast<double>(z->timed) / static_cast<double>(l->timed);
  EXPECT_GT(slow_share, 0.125 - 0.02);
  EXPECT_LT(slow_share, 0.125 + 0.02);
  // The leaf is the loop's only zone, so it is nearly all of the loop's wall
  // time: on a quiet host the estimate reads 0.95-1.0 of it. The band is a
  // factor 1.4 either way because even the least-stalled run can hold a
  // stall of several ms; locking onto the slow phase reads about 8x.
  double truth = static_cast<double>(run.wall_ns);
  EXPECT_GT(static_cast<double>(l->total_ns), truth / 1.4);
  EXPECT_LT(static_cast<double>(l->total_ns), truth * 1.4);
}

TEST_F(ProfilerTest, FirstEntriesAreTimedNoMoreOftenThanOthers) {
  // The first entry of a zone is often its coldest (first allocation, cold
  // caches). Timing it always, scaled by a whole gap, overstated every strided
  // zone by about a gap's worth of its cold call. Its first entry should be
  // timed one time in 8 at stride 3, like any other: of 32 zones entered once
  // each, about 4 (give or take 2), not 32.
  int64_t timed = 0;
  for (int i = 0; i < 32; ++i) {
    std::string name = "test.first." + std::to_string(i);
    int zone = Profiler::Get().RegisterZone(name.c_str(), /*stride_log2=*/3);
    { ProfileZone z(zone); }
    std::vector<Profiler::ZoneStats> snap = Profiler::Get().Snapshot();
    const Profiler::ZoneStats* z = Find(snap, name);
    ASSERT_NE(z, nullptr);
    EXPECT_EQ(z->count, 1);
    timed += z->timed;
  }
  EXPECT_LT(timed, 12);
}

TEST_F(ProfilerTest, MeasuredSelfOverheadStaysBoundedOnChurnLoop) {
  // A mini churn loop: a strided hot zone wrapping real work inside a root
  // zone and a measurement window — the same shape profile-smoke gates at
  // RelWithDebInfo against micro_substrate with a 3% ceiling. The bound here
  // is deliberately lenient because this test also runs under Debug/ASan,
  // where the calibrated per-entry cost is far larger.
  int root = Profiler::Get().RegisterZone("test.churn.root");
  int hot = Profiler::Get().RegisterZone("test.churn.hot", /*stride_log2=*/6);

  Profiler::Get().BeginMeasurement();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  {
    ProfileZone r(root);
    for (int i = 0; i < 200000; ++i) {
      ProfileZone z(hot);
      // A dependent xorshift chain keeps ~tens of ns of irreducible work per
      // entry, so the zone isn't measuring nothing but itself.
      for (int round = 0; round < 32; ++round) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
    }
  }
  Profiler::Get().EndMeasurement();
  volatile uint64_t sink = x;
  (void)sink;

  EXPECT_GT(Profiler::Get().measured_wall_ns(), 0);
  // The bound is measured (calibrated per-entry costs x exact counts), so it
  // must be positive — a zero would mean the cost model never calibrated.
  EXPECT_GT(Profiler::Get().SelfOverheadNs(), 0);
  EXPECT_LT(Profiler::Get().SelfOverhead(), 0.25);
  // The whole window ran inside the root zone, so named zones cover it.
  EXPECT_GT(Profiler::Get().Coverage(), 0.8);
  EXPECT_LT(Profiler::Get().Coverage(), 1.2);
}

TEST_F(ProfilerTest, ToJsonAndCounterTracksCarryZones) {
  int zone = Profiler::Get().RegisterZone("test.json.zone");
  Profiler::Get().BeginMeasurement();
  {
    ProfileZone z(zone);
    SpinFor(1000000);
  }
  Profiler::Get().EndMeasurement();

  std::string json = Profiler::Get().ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"measured_wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"self_overhead\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.zone\""), std::string::npos);

  // Chrome-trace counter tracks splice into ExportChromeTrace's event stream,
  // so a non-empty result must end with the trailing comma.
  std::string tracks = ProfilerCounterTrackJson();
  EXPECT_NE(tracks.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(tracks.find("prof.test.json.zone"), std::string::npos);
  ASSERT_FALSE(tracks.empty());
  EXPECT_EQ(tracks.back(), ',');
}

TEST(ProfilerDisabledTest, DisabledZonesAccumulateNothing) {
  Profiler::Get().Disable();
  Profiler::Get().Reset();
  int zone = Profiler::Get().RegisterZone("test.disabled");
  for (int i = 0; i < 1000; ++i) {
    ProfileZone z(zone);
  }
  // Snapshot drops zero-count zones, so the zone must be absent entirely.
  EXPECT_EQ(Find(Profiler::Get().Snapshot(), "test.disabled"), nullptr);
}

}  // namespace
}  // namespace sns

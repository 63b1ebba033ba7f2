// TimeSeriesRecorder: periodic sampling of the whole metrics registry into
// bounded, run-length-encoded series, one series per instrument.
//
// End-of-run snapshots (the monitor's ExportJson) answer "how much, in total?";
// the figures in the paper's evaluation — queue lengths tracking an offered-load
// burst (Fig. 6), distillers spawning as the manager's spawn threshold trips —
// need "how much, *when*?". Each sample tick records every registered counter
// (cumulative value), gauge (instantaneous value), and histogram (count and
// mean), plus any custom probes (per-node CPU utilization, values that live
// outside the registry). Series are bounded, so long experiments keep the most
// recent window of max_samples ticks.
//
// Every series shares one clock. A series joins at the first tick after its
// instrument or probe appears and gets exactly one value on every tick from
// then on, so its values line up with the *last* size() entries of times():
// value i was sampled at times()[times().size() - size() + i]. The clock and
// every series drop their oldest tick together, so the rule survives
// eviction. The clock is stored and exported once instead of once per series.
//
// Most sampled values repeat the value of the tick before (an idle counter, a
// gauge at rest), so a series stores runs: (value, count) pairs. A sample whose
// bits equal the last run's value extends that run, so +0 and -0 stay apart,
// and so do NaNs with different payloads. Eviction shortens the first run and
// drops it once its count reaches zero. The export writes runs too (see
// ToJson).
//
// The recorder is driven externally via SampleAt(now): it has no event-loop
// dependency of its own (obs stays below sim/net in the layer order); SnsSystem
// owns a PeriodicTimer that calls it on the configured cadence.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace sns {

class TimeSeriesRecorder {
 public:
  // `count` consecutive ticks that sampled the same value (bit for bit).
  struct Run {
    double value = 0;
    int64_t count = 0;
  };

  // One series: its runs, oldest first, end-aligned with times() (see the
  // header comment).
  class Series {
   public:
    size_t size() const { return size_; }  // Ticks covered: the sum of the counts.
    const std::deque<Run>& runs() const { return runs_; }
    // Every sampled value, oldest first (each run expanded).
    std::vector<double> Values() const;

   private:
    friend class TimeSeriesRecorder;
    void Push(double value);
    void PopFront();

    std::deque<Run> runs_;
    size_t size_ = 0;
  };

  explicit TimeSeriesRecorder(const MetricsRegistry* registry,
                              SimDuration interval = Milliseconds(250),
                              size_t max_samples = 4096)
      : registry_(registry), interval_(interval), max_samples_(max_samples) {}

  // Registers a custom probe sampled alongside the registry (e.g. node CPU, which
  // lives in the Cluster, not the registry). Re-registering a name replaces it.
  void AddProbe(const std::string& series, std::function<double()> probe);

  // Takes one sample of every instrument and probe at sim-time `now`.
  void SampleAt(SimTime now);

  SimDuration interval() const { return interval_; }
  int64_t samples_taken() const { return samples_taken_; }
  size_t series_count() const { return series_.size(); }
  const Series* Find(const std::string& name) const;
  // The shared sample clock: the last max_samples tick times, oldest first.
  const std::deque<SimTime>& times() const { return times_; }
  // The time value i of `s` was sampled at.
  SimTime TimeOf(const Series& s, size_t i) const {
    return times_[times_.size() - s.size() + i];
  }

  // Columnar JSON, the clock once and each series end-aligned with it:
  //   {"interval_ns":N,"samples":N,"t_ns":[t0,step,...],
  //    "series":{"name":{"v":[run,...]},...}}
  // A run of one is a bare number and a longer run is [value,count]. The clock
  // is its first tick t0 followed by the steps between consecutive ticks, run
  // encoded the same way, so a uniform clock is [t0,[interval,n-1]]. Adjacent
  // runs whose values print the same under %.6g are written as one run.
  // Series are sorted by name; each decodes to at most max_samples values.
  std::string ToJson() const;

 private:
  void Record(Series* s, double value);
  // Points slots_ at the series of every instrument and probe, in sampling order.
  void Bind();
  size_t InstrumentCount() const;  // 0 without a registry.

  const MetricsRegistry* registry_;
  SimDuration interval_;
  size_t max_samples_;
  int64_t samples_taken_ = 0;
  std::deque<SimTime> times_;
  std::map<std::string, std::function<double()>> probes_;
  std::map<std::string, Series> series_;
  // One slot per sampled value, in SampleAt's order: counters, gauges, histogram
  // count and mean, probes. Instruments are never removed, so the slots stay
  // valid until the instrument or probe count changes. A name sampled twice in
  // one tick (a counter "x.count" beside a histogram "x") keeps its first
  // value; its later slots are null, so no series gets two values per tick.
  std::vector<Series*> slots_;
  size_t bound_instruments_ = 0;
  size_t bound_probes_ = 0;
};

}  // namespace sns

#endif  // SRC_OBS_TIMESERIES_H_

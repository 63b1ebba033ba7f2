// Cluster-wide metrics registry: named counters, gauges, and histograms.
//
// Every Process registers instruments here instead of keeping ad-hoc counter
// members, so the monitor (paper §3.1.7) and the bench harness can export one
// machine-readable snapshot of the whole system. Names are dotted paths:
// "<component>[.<instance>].<metric>", e.g. "manager.beacons_sent",
// "fe.0.completed_requests", "worker.distill-jpeg.p17.completed_tasks".
//
// Instruments live as long as the registry (i.e. the Cluster): a restarted process
// re-attaches to the same instrument, so counters are cumulative across process
// incarnations — soft state dies with a process, measurements do not.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/util/stats.h"

namespace sns {

// Escapes a string for embedding inside a JSON string literal.
std::string JsonEscape(std::string_view s);

// Appenders for the JSON exporters: each writes into `out` with std::to_chars,
// byte for byte what the printf conversion in its comment would print.
void AppendInt(std::string* out, int64_t v);      // %lld
void AppendUint(std::string* out, uint64_t v);    // %llu
void AppendDouble6g(std::string* out, double v);  // %.6g
void AppendFixed(std::string* out, double v, int precision);  // %.<precision>f, precision <= 100
// JsonEscape(s), appended in place.
void AppendEscaped(std::string* out, std::string_view s);

// Output lengths of AppendInt/AppendUint/AppendEscaped, for sizing a buffer
// before it is written.
size_t IntLength(int64_t v);
size_t UintLength(uint64_t v);
size_t EscapedLength(std::string_view s);

// Monotonically increasing count of events.
class Counter {
 public:
  void Increment(int64_t by = 1) { value_ += by; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Last-writer-wins instantaneous value (queue depth, bytes in use, ...).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the named instrument. Returned pointers are stable for the
  // registry's lifetime. For histograms the bucket layout is fixed by the first
  // caller; later callers with a different layout get the existing instrument.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, double lo, double hi, size_t buckets);

  // Lookup without creation; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;

  // Convenience: counter value or 0 when the instrument does not exist yet.
  int64_t CounterValue(const std::string& name) const;

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Visit every instrument in sorted name order (the time-series recorder samples
  // the whole registry each tick through these).
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, counter] : counters_) {
      fn(name, *counter);
    }
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [name, gauge] : gauges_) {
      fn(name, *gauge);
    }
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, histogram] : histograms_) {
      fn(name, *histogram);
    }
  }

  // One "name value" line per instrument, sorted by name (histograms render
  // count/mean/p50/p95/p99). Meant for logs and the monitor's text page.
  std::string RenderText() const;

  // {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,...}}}.
  std::string RenderJson() const;

 private:
  // std::map keeps deterministic, sorted iteration for exports; unique_ptr keeps
  // instrument addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sns

#endif  // SRC_OBS_METRICS_H_

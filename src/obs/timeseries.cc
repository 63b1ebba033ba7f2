#include "src/obs/timeseries.h"

#include <string_view>
#include <unordered_set>
#include <utility>

namespace sns {

namespace {

// The fixed text around each series, as ToJson writes it.
constexpr std::string_view kSeriesOpen = "\":{\"v\":[";  // After the quoted name.
constexpr std::string_view kSeriesClose = "]}";

}  // namespace

void TimeSeriesRecorder::AddProbe(const std::string& series, std::function<double()> probe) {
  probes_[series] = std::move(probe);
}

void TimeSeriesRecorder::Record(Series* s, double value) {
  if (s == nullptr) {
    return;  // A repeated name: its first slot this tick already recorded it.
  }
  s->v.push_back(value);
  if (s->v.size() > max_samples_) {
    s->v.pop_front();
  }
}

void TimeSeriesRecorder::Bind() {
  slots_.clear();
  std::unordered_set<const Series*> bound;
  auto bind = [&](const std::string& name) {
    Series* s = &series_[name];
    slots_.push_back(bound.insert(s).second ? s : nullptr);
  };
  if (registry_ != nullptr) {
    registry_->ForEachCounter([&](const std::string& name, const Counter&) { bind(name); });
    registry_->ForEachGauge([&](const std::string& name, const Gauge&) { bind(name); });
    registry_->ForEachHistogram([&](const std::string& name, const Histogram&) {
      bind(name + ".count");
      bind(name + ".mean");
    });
  }
  for (const auto& [name, probe] : probes_) {
    bind(name);
  }
  bound_instruments_ = InstrumentCount();
  bound_probes_ = probes_.size();
}

size_t TimeSeriesRecorder::InstrumentCount() const {
  return registry_ != nullptr ? registry_->instrument_count() : 0;
}

void TimeSeriesRecorder::SampleAt(SimTime now) {
  ++samples_taken_;
  times_.push_back(now);
  if (times_.size() > max_samples_) {
    times_.pop_front();
  }
  if (InstrumentCount() != bound_instruments_ || probes_.size() != bound_probes_) {
    Bind();
  }
  auto slot = slots_.begin();
  if (registry_ != nullptr) {
    registry_->ForEachCounter([&](const std::string&, const Counter& c) {
      Record(*slot++, static_cast<double>(c.value()));
    });
    registry_->ForEachGauge(
        [&](const std::string&, const Gauge& g) { Record(*slot++, g.value()); });
    registry_->ForEachHistogram([&](const std::string&, const Histogram& h) {
      Record(*slot++, static_cast<double>(h.TotalCount()));
      Record(*slot++, h.summary().mean());
    });
  }
  for (const auto& [name, probe] : probes_) {
    Record(*slot++, probe());
  }
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::Find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string TimeSeriesRecorder::ToJson() const {
  // The head (with the clock) and the values are rendered first, into scratch
  // buffers. With them every byte of the output is known, so it is reserved
  // once at its final size.
  std::string values;
  std::vector<size_t> values_end;
  values_end.reserve(series_.size());
  std::string head = "{\"interval_ns\":";
  AppendInt(&head, interval_);
  head += ",\"samples\":";
  AppendInt(&head, samples_taken_);
  head += ",\"t_ns\":[";
  for (size_t i = 0; i < times_.size(); ++i) {
    if (i > 0) head += ',';
    AppendInt(&head, times_[i]);
  }
  head += "],\"series\":{";
  // Fixed text: the head, the closing "}}" and a comma between series.
  size_t size = head.size() + 2 + (series_.empty() ? 0 : series_.size() - 1);
  for (const auto& [name, s] : series_) {
    for (size_t i = 0; i < s.v.size(); ++i) {
      if (i > 0) values += ',';
      AppendDouble6g(&values, s.v[i]);
    }
    values_end.push_back(values.size());
    size += 1 + EscapedLength(name) + kSeriesOpen.size() + kSeriesClose.size();
  }
  size += values.size();

  std::string out;
  out.reserve(size);
  out += head;
  size_t index = 0;
  for (const auto& [name, s] : series_) {
    if (index > 0) out += ',';
    out += '"';
    AppendEscaped(&out, name);
    out += kSeriesOpen;
    size_t values_begin = index > 0 ? values_end[index - 1] : 0;
    out.append(values, values_begin, values_end[index] - values_begin);
    out += kSeriesClose;
    ++index;
  }
  out += "}}";
  return out;
}

}  // namespace sns

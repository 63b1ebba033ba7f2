#include "src/obs/timeseries.h"

#include <string_view>
#include <utility>

namespace sns {

namespace {

// The fixed text around each series, as ToJson writes it.
constexpr std::string_view kSeriesOpen = "\":{\"t_ns\":[";  // After the quoted name.
constexpr std::string_view kSeriesMid = "],\"v\":[";
constexpr std::string_view kSeriesClose = "]}";

}  // namespace

void TimeSeriesRecorder::AddProbe(const std::string& series, std::function<double()> probe) {
  probes_[series] = std::move(probe);
}

void TimeSeriesRecorder::Record(Series* s, SimTime now, double value) {
  s->t.push_back(now);
  s->v.push_back(value);
  while (s->t.size() > max_samples_) {
    s->t.pop_front();
    s->v.pop_front();
  }
}

void TimeSeriesRecorder::Bind() {
  slots_.clear();
  if (registry_ != nullptr) {
    registry_->ForEachCounter([this](const std::string& name, const Counter&) {
      slots_.push_back(&series_[name]);
    });
    registry_->ForEachGauge([this](const std::string& name, const Gauge&) {
      slots_.push_back(&series_[name]);
    });
    registry_->ForEachHistogram([this](const std::string& name, const Histogram&) {
      slots_.push_back(&series_[name + ".count"]);
      slots_.push_back(&series_[name + ".mean"]);
    });
  }
  for (const auto& [name, probe] : probes_) {
    slots_.push_back(&series_[name]);
  }
  bound_instruments_ = InstrumentCount();
  bound_probes_ = probes_.size();
}

size_t TimeSeriesRecorder::InstrumentCount() const {
  return registry_ != nullptr ? registry_->instrument_count() : 0;
}

void TimeSeriesRecorder::SampleAt(SimTime now) {
  ++samples_taken_;
  if (InstrumentCount() != bound_instruments_ || probes_.size() != bound_probes_) {
    Bind();
  }
  auto slot = slots_.begin();
  if (registry_ != nullptr) {
    registry_->ForEachCounter([&](const std::string&, const Counter& c) {
      Record(*slot++, now, static_cast<double>(c.value()));
    });
    registry_->ForEachGauge(
        [&](const std::string&, const Gauge& g) { Record(*slot++, now, g.value()); });
    registry_->ForEachHistogram([&](const std::string&, const Histogram& h) {
      Record(*slot++, now, static_cast<double>(h.TotalCount()));
      Record(*slot++, now, h.summary().mean());
    });
  }
  for (const auto& [name, probe] : probes_) {
    Record(*slot++, now, probe());
  }
}

std::vector<std::string> TimeSeriesRecorder::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    names.push_back(name);
  }
  return names;
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::Find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string TimeSeriesRecorder::ToJson() const {
  // The values are rendered first, into one scratch buffer. With them every
  // byte of the output is known, so it is reserved once at its final size.
  std::string values;
  std::vector<size_t> values_end;
  values_end.reserve(series_.size());
  std::string head = "{\"interval_ns\":";
  AppendInt(&head, interval_);
  head += ",\"samples\":";
  AppendInt(&head, samples_taken_);
  head += ",\"series\":{";
  // Fixed text: the head, the closing "}}" and a comma between series.
  size_t size = head.size() + 2 + (series_.empty() ? 0 : series_.size() - 1);
  for (const auto& [name, s] : series_) {
    for (size_t i = 0; i < s.v.size(); ++i) {
      if (i > 0) values += ',';
      AppendDouble6g(&values, s.v[i]);
    }
    values_end.push_back(values.size());
    size += 1 + EscapedLength(name) + kSeriesOpen.size() + kSeriesMid.size() +
            kSeriesClose.size();
    for (SimTime t : s.t) {
      size += IntLength(t);
    }
    size += s.t.empty() ? 0 : s.t.size() - 1;  // Commas between times.
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
    for (size_t i = 0; i < s.t.size(); ++i) {
      if (i > 0) out += ',';
      AppendInt(&out, s.t[i]);
    }
    out += kSeriesMid;
    size_t values_begin = index > 0 ? values_end[index - 1] : 0;
    out.append(values, values_begin, values_end[index] - values_begin);
    out += kSeriesClose;
    ++index;
  }
  out += "}}";
  return out;
}

}  // namespace sns

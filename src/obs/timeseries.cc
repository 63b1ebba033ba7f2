#include "src/obs/timeseries.h"

#include <bit>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace sns {

namespace {

// The fixed text around each series, as ToJson writes it.
constexpr std::string_view kSeriesOpen = "\":{\"v\":[";  // After the quoted name.
constexpr std::string_view kSeriesClose = "]}";

// Appends runs as ToJson's array elements: a run of one as its text, a longer
// run as [text,count]. Adjacent runs with the same text are written as one.
class RunWriter {
 public:
  // `first` is false when the array already holds an element.
  explicit RunWriter(std::string* out, bool first = true) : out_(out), first_(first) {}

  void Add(std::string_view text, int64_t count) {
    if (count_ > 0 && text == pending_) {
      count_ += count;
      return;
    }
    Flush();
    pending_.assign(text);
    count_ = count;
  }

  void Flush() {
    if (count_ == 0) {
      return;
    }
    if (!first_) *out_ += ',';
    first_ = false;
    if (count_ == 1) {
      *out_ += pending_;
    } else {
      *out_ += '[';
      *out_ += pending_;
      *out_ += ',';
      AppendInt(out_, count_);
      *out_ += ']';
    }
    count_ = 0;
  }

 private:
  std::string* out_;
  bool first_;
  std::string pending_;
  int64_t count_ = 0;
};

}  // namespace

std::vector<double> TimeSeriesRecorder::Series::Values() const {
  std::vector<double> values;
  values.reserve(size_);
  for (const Run& run : runs_) {
    values.insert(values.end(), static_cast<size_t>(run.count), run.value);
  }
  return values;
}

void TimeSeriesRecorder::Series::Push(double value) {
  if (!runs_.empty() &&
      std::bit_cast<uint64_t>(runs_.back().value) == std::bit_cast<uint64_t>(value)) {
    ++runs_.back().count;
  } else {
    runs_.push_back({value, 1});
  }
  ++size_;
}

void TimeSeriesRecorder::Series::PopFront() {
  if (--runs_.front().count == 0) {
    runs_.pop_front();
  }
  --size_;
}

void TimeSeriesRecorder::AddProbe(const std::string& series, std::function<double()> probe) {
  probes_[series] = std::move(probe);
}

void TimeSeriesRecorder::Record(Series* s, double value) {
  if (s == nullptr) {
    return;  // A repeated name: its first slot this tick already recorded it.
  }
  s->Push(value);
  if (s->size() > max_samples_) {
    s->PopFront();
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
  std::string text;  // One element's text, before RunWriter merges it.
  std::string head = "{\"interval_ns\":";
  AppendInt(&head, interval_);
  head += ",\"samples\":";
  AppendInt(&head, samples_taken_);
  head += ",\"t_ns\":[";
  if (!times_.empty()) {
    AppendInt(&head, times_.front());
    RunWriter steps(&head, /*first=*/false);
    for (size_t i = 1; i < times_.size(); ++i) {
      text.clear();
      AppendInt(&text, times_[i] - times_[i - 1]);
      steps.Add(text, 1);
    }
    steps.Flush();
  }
  head += "],\"series\":{";
  // Fixed text: the head, the closing "}}" and a comma between series.
  size_t size = head.size() + 2 + (series_.empty() ? 0 : series_.size() - 1);
  for (const auto& [name, s] : series_) {
    RunWriter runs(&values);
    for (const Run& run : s.runs()) {
      text.clear();
      AppendDouble6g(&text, run.value);
      runs.Add(text, run.count);
    }
    runs.Flush();
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

#include "src/obs/availability.h"

#include <algorithm>

#include "src/util/strings.h"

namespace sns {

AvailabilityLedger::AvailabilityLedger(SimDuration window)
    : window_(window > 0 ? window : Seconds(1)) {}

void AvailabilityLedger::BindMetrics(MetricsRegistry* metrics) {
  offered_gauge_ = metrics->GetGauge("availability.offered");
  answered_gauge_ = metrics->GetGauge("availability.answered");
  yield_gauge_ = metrics->GetGauge("availability.yield");
  harvest_gauge_ = metrics->GetGauge("availability.harvest");
  UpdateGauges();
}

void AvailabilityLedger::UpdateGauges() {
  if (offered_gauge_ == nullptr) {
    return;
  }
  offered_gauge_->Set(static_cast<double>(offered_));
  answered_gauge_->Set(static_cast<double>(answered_));
  yield_gauge_->Set(RunYield());
  harvest_gauge_->Set(RunHarvest());
}

AvailabilityLedger::WindowRow& AvailabilityLedger::Row(SimTime at) {
  int64_t index = WindowIndex(at);
  WindowRow& row = windows_.try_emplace(windows_.end(), index)->second;
  row.second = index;
  return row;
}

void AvailabilityLedger::RecordOffered(SimTime at) {
  ++offered_;
  ++Row(at).offered;
  UpdateGauges();
}

void AvailabilityLedger::RecordAnswered(SimTime offered_at, double harvest) {
  harvest = std::clamp(harvest, 0.0, 1.0);
  ++answered_;
  harvest_sum_ += harvest;
  WindowRow& row = Row(offered_at);
  ++row.answered;
  row.harvest_sum += harvest;
  UpdateGauges();
}

void AvailabilityLedger::RecordUnanswered(SimTime offered_at, const std::string& reason) {
  ++unanswered_;
  ++unanswered_by_reason_[reason];
  ++Row(offered_at).unanswered;
  UpdateGauges();
}

double AvailabilityLedger::RunYield() const {
  return offered_ > 0 ? static_cast<double>(answered_) / static_cast<double>(offered_)
                      : 1.0;
}

double AvailabilityLedger::RunHarvest() const {
  return answered_ > 0 ? harvest_sum_ / static_cast<double>(answered_) : 1.0;
}

std::vector<AvailabilityLedger::WindowRow> AvailabilityLedger::Windows() const {
  std::vector<WindowRow> rows;
  if (windows_.empty()) {
    return rows;
  }
  int64_t first = windows_.begin()->first;
  int64_t last = windows_.rbegin()->first;
  rows.reserve(static_cast<size_t>(last - first + 1));
  for (int64_t s = first; s <= last; ++s) {
    auto it = windows_.find(s);
    if (it != windows_.end()) {
      rows.push_back(it->second);
    } else {
      WindowRow quiet;
      quiet.second = s;
      rows.push_back(quiet);
    }
  }
  return rows;
}

std::vector<AvailabilityLedger::RecoveryGap> AvailabilityLedger::DeriveRecoveryGaps(
    const EventLog* events) const {
  std::vector<RecoveryGap> gaps;
  std::vector<WindowRow> rows = Windows();
  double window_s = ToSeconds(window_);
  size_t i = 0;
  while (i < rows.size()) {
    if (rows[i].offered > 0 && rows[i].answered == 0) {
      size_t j = i;
      while (j < rows.size() && rows[j].offered > 0 && rows[j].answered == 0) {
        ++j;
      }
      RecoveryGap gap;
      gap.start_s = static_cast<double>(rows[i].second) * window_s;
      gap.end_s = static_cast<double>(rows[i].second + static_cast<int64_t>(j - i)) *
                  window_s;
      gap.duration_s = gap.end_s - gap.start_s;
      if (events != nullptr) {
        // Attribute to the latest fault at or before the gap's end — the fault
        // whose recovery this gap measures.
        SimTime gap_end = static_cast<SimTime>(gap.end_s * kSecond);
        for (const FaultInstant& fault : events->faults()) {
          if (fault.at <= gap_end) {
            gap.fault = fault.what;
          }
        }
      }
      gaps.push_back(std::move(gap));
      i = j;
    } else {
      ++i;
    }
  }
  return gaps;
}

std::string AvailabilityLedger::ToJson(const EventLog* events) const {
  std::vector<WindowRow> rows = Windows();
  std::string seconds, offered, answered, unanswered, yields, harvests;
  for (const WindowRow& row : rows) {
    const char* sep = seconds.empty() ? "" : ",";
    seconds += StrFormat("%s%lld", sep, static_cast<long long>(row.second));
    offered += StrFormat("%s%lld", sep, static_cast<long long>(row.offered));
    answered += StrFormat("%s%lld", sep, static_cast<long long>(row.answered));
    unanswered += StrFormat("%s%lld", sep, static_cast<long long>(row.unanswered));
    double y = row.offered > 0
                   ? static_cast<double>(row.answered) / static_cast<double>(row.offered)
                   : 1.0;
    double h = row.answered > 0 ? row.harvest_sum / static_cast<double>(row.answered)
                                : 1.0;
    yields += StrFormat("%s%.4f", sep, y);
    harvests += StrFormat("%s%.4f", sep, h);
  }

  std::string reasons;
  for (const auto& [reason, count] : unanswered_by_reason_) {
    if (!reasons.empty()) reasons += ",";
    reasons += StrFormat("\"%s\":%lld", JsonEscape(reason).c_str(),
                         static_cast<long long>(count));
  }

  std::string faults;
  if (events != nullptr) {
    for (const FaultInstant& fault : events->faults()) {
      if (!faults.empty()) faults += ",";
      faults += StrFormat("{\"t_ns\":%lld,\"what\":\"%s\"}",
                          static_cast<long long>(fault.at), JsonEscape(fault.what).c_str());
    }
  }

  std::string gaps_json;
  double max_gap_s = 0;
  for (const RecoveryGap& gap : DeriveRecoveryGaps(events)) {
    if (!gaps_json.empty()) gaps_json += ",";
    gaps_json += StrFormat(
        "{\"start_s\":%.3f,\"end_s\":%.3f,\"duration_s\":%.3f,\"fault\":\"%s\"}",
        gap.start_s, gap.end_s, gap.duration_s, JsonEscape(gap.fault).c_str());
    max_gap_s = std::max(max_gap_s, gap.duration_s);
  }

  return StrFormat(
      "{\"window_s\":%.3f,\"offered\":%lld,\"answered\":%lld,\"unanswered\":%lld,"
      "\"yield\":%.6f,\"harvest\":%.6f,\"unanswered_by_reason\":{%s},"
      "\"windows\":{\"second\":[%s],\"offered\":[%s],\"answered\":[%s],"
      "\"unanswered\":[%s],\"yield\":[%s],\"harvest\":[%s]},"
      "\"faults\":[%s],\"recovery_gaps\":[%s],\"max_recovery_gap_s\":%.3f}",
      ToSeconds(window_), static_cast<long long>(offered_),
      static_cast<long long>(answered_), static_cast<long long>(unanswered_),
      RunYield(), RunHarvest(), reasons.c_str(), seconds.c_str(), offered.c_str(),
      answered.c_str(), unanswered.c_str(), yields.c_str(), harvests.c_str(), faults.c_str(),
      gaps_json.c_str(), max_gap_s);
}

std::string AvailabilityLedger::RenderTable(const EventLog* events) const {
  std::vector<WindowRow> rows = Windows();
  if (rows.empty()) {
    return "  (no requests offered)\n";
  }
  std::vector<RecoveryGap> gaps = DeriveRecoveryGaps(events);
  double window_s = ToSeconds(window_);
  std::string out = StrFormat("  %6s %8s %9s %7s %9s  %s\n", "t(s)", "offered",
                              "answered", "yield", "harvest", "events");
  for (const WindowRow& row : rows) {
    double t = static_cast<double>(row.second) * window_s;
    double y = row.offered > 0
                   ? static_cast<double>(row.answered) / static_cast<double>(row.offered)
                   : 1.0;
    double h = row.answered > 0 ? row.harvest_sum / static_cast<double>(row.answered)
                                : 1.0;
    std::string notes;
    if (events != nullptr) {
      for (const FaultInstant& fault : events->faults()) {
        if (WindowIndex(fault.at) == row.second) {
          if (!notes.empty()) notes += "; ";
          notes += "* " + fault.what;
        }
      }
    }
    for (const RecoveryGap& gap : gaps) {
      if (t >= gap.start_s && t < gap.end_s) {
        if (!notes.empty()) notes += "; ";
        notes += "! outage";
      }
    }
    out += StrFormat("  %6.0f %8lld %9lld %7.3f %9.3f  %s\n", t,
                     static_cast<long long>(row.offered),
                     static_cast<long long>(row.answered), y, h, notes.c_str());
  }
  out += StrFormat("  run: yield %.4f harvest %.4f", RunYield(), RunHarvest());
  if (!gaps.empty()) {
    double max_gap = 0;
    for (const RecoveryGap& gap : gaps) max_gap = std::max(max_gap, gap.duration_s);
    out += StrFormat(", %zu recovery gap(s), longest %.0f s", gaps.size(), max_gap);
  }
  out += "\n";
  return out;
}

void AvailabilityLedger::Reset() {
  offered_ = 0;
  answered_ = 0;
  unanswered_ = 0;
  harvest_sum_ = 0;
  windows_.clear();
  unanswered_by_reason_.clear();
  UpdateGauges();
}

}  // namespace sns

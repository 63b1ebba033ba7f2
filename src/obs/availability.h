// Harvest/yield availability ledger (the paper's §3.3 degradation model, with
// the Fox/Brewer harvest-yield vocabulary).
//
//   yield   = answered / offered       — what fraction of queries got an answer
//   harvest = completeness of answers  — how much of the full answer each got
//
// Every offered request is recorded once; every resolution is recorded once as
// either an answer carrying a harvest fraction in [0, 1] (1.0 = the full
// requested representation; approximate/degraded answers proportionally less —
// the mapping from response provenance to fraction lives with the service
// layer, see ResponseHarvest in src/sns/messages.h) or as unanswered with a
// reason (error / timeout / late / send_failed). The ledger buckets both into
// fixed windows of sim time by the request's offer time, so a window's answered
// and unanswered counts never exceed its offered count and its yield is at most
// 1, producing the yield and harvest time-series, and
// folds the EventLog's fault instants (injector faults, quorum transitions,
// fence kills) into an availability timeline: per-window yield annotated with
// the faults that landed there, plus derived recovery gaps — maximal runs of
// windows where load was offered but nothing was answered, attributed to the
// most recent preceding fault. This is the "paper-style availability figure"
// ROADMAP item 5 wants in place of the single recovery_s scalar.
//
// Layering: obs stays service-agnostic. The ledger takes plain times and
// fractions; what a fraction *means* is the caller's contract.

#ifndef SRC_OBS_AVAILABILITY_H_
#define SRC_OBS_AVAILABILITY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace sns {

class AvailabilityLedger {
 public:
  explicit AvailabilityLedger(SimDuration window = Seconds(1));

  // Registers and thereafter maintains the availability.* gauges (offered,
  // answered, yield, harvest) so monitor snapshots carry the running totals.
  void BindMetrics(MetricsRegistry* metrics);

  void RecordOffered(SimTime at);
  // The resolution of the request offered at `offered_at`, whenever it comes.
  // `harvest` in [0, 1] (clamped): the completeness of the answer.
  void RecordAnswered(SimTime offered_at, double harvest);
  // reason: "error", "timeout", "late", "send_failed" (free-form tolerated).
  void RecordUnanswered(SimTime offered_at, const std::string& reason);

  int64_t offered() const { return offered_; }
  int64_t answered() const { return answered_; }
  int64_t unanswered() const { return unanswered_; }
  // Whole-run yield: answered / offered (1.0 when nothing was offered).
  double RunYield() const;
  // Whole-run harvest: mean fraction over answered requests (1.0 when none).
  double RunHarvest() const;

  struct WindowRow {
    int64_t second = 0;  // Window index in units of `window` (seconds for 1 s).
    int64_t offered = 0;
    int64_t answered = 0;
    int64_t unanswered = 0;
    double harvest_sum = 0;  // Sum of per-answer fractions in this window.
  };

  struct RecoveryGap {
    double start_s = 0;     // First zero-yield window (inclusive), seconds.
    double end_s = 0;       // First window with answers again (exclusive).
    double duration_s = 0;
    std::string fault;      // Most recent preceding fault, "" if none found.
  };

  // Contiguous per-window rows from first to last activity (quiet interior
  // windows filled with zeros). Empty when nothing was recorded.
  std::vector<WindowRow> Windows() const;
  // Maximal runs of windows with offered > 0 and answered == 0, each
  // attributed to the latest fault in `events` at or before the run's end.
  std::vector<RecoveryGap> DeriveRecoveryGaps(const EventLog* events) const;

  const std::map<std::string, int64_t>& unanswered_by_reason() const {
    return unanswered_by_reason_;
  }

  // The artifact "availability" section: run totals, windowed
  // offered/answered/unanswered counts and yield/harvest series (columnar, by
  // offer window), fault annotations ({"t_ns":<integer sim ns>,"what":...},
  // the unit of span start_ns), and derived recovery gaps.
  std::string ToJson(const EventLog* events) const;
  // Paper-style figure table: one row per window with yield, harvest, and
  // fault/gap annotations. For bench/scenario console output.
  std::string RenderTable(const EventLog* events) const;

  void Reset();

 private:
  int64_t WindowIndex(SimTime at) const { return at / window_; }
  // The row of the window holding `at`, created on first use. Offers arrive
  // in time order, so the newest window is found without a tree search;
  // resolutions land in their offer's window, a search back.
  WindowRow& Row(SimTime at);
  void UpdateGauges();

  SimDuration window_;
  int64_t offered_ = 0;
  int64_t answered_ = 0;
  int64_t unanswered_ = 0;
  double harvest_sum_ = 0;
  std::map<int64_t, WindowRow> windows_;
  std::map<std::string, int64_t> unanswered_by_reason_;

  Gauge* offered_gauge_ = nullptr;
  Gauge* answered_gauge_ = nullptr;
  Gauge* yield_gauge_ = nullptr;
  Gauge* harvest_gauge_ = nullptr;
};

}  // namespace sns

#endif  // SRC_OBS_AVAILABILITY_H_

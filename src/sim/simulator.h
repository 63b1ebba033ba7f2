// Deterministic discrete-event simulator.
//
// This is the substrate that stands in for the paper's physical cluster testbed
// (15 SPARC Ultra-1s on switched Ethernet): all other modules — the SAN model, node
// CPU scheduling, SNS beacons and timeouts, the trace playback engine — are driven by
// events scheduled here. Events at equal times fire in scheduling order (FIFO), so a
// run is a pure function of its inputs and seeds.
//
// Internals (DESIGN.md §12): a three-level hierarchical timer wheel (256 slots
// per level, 4.096 µs ticks, ~68.7 s in-wheel horizon) with a sorted overflow
// heap for far timers. Event records live in a slab (chunked, free-listed) and
// carry their callback in inline storage (src/sim/callback.h), so the
// dominant schedule → cancel and schedule → fire lifecycles perform no heap
// allocation. Schedule and cancel are O(1) for in-wheel events; equal-time
// ordering is enforced by a per-slot sort on a monotonic sequence number, which
// preserves exact FIFO semantics across the wheel/overflow split.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/callback.h"
#include "src/util/time.h"

namespace sns {

// Opaque handle for a scheduled event: slab slot in the low 32 bits (biased by
// one so 0 stays invalid), slot generation in the high 32. Generations make
// handles single-use: once an event fires or is cancelled its handle goes stale
// and Cancel() on it returns false forever, even after the slot is reused.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run after `delay` (clamped to >= 0). Returns an id usable with
  // Cancel(). Accepts any callable, including move-only and `mutable` lambdas;
  // captures up to SimCallback::kInlineCapacity bytes are stored without allocating.
  EventId Schedule(SimDuration delay, SimCallback fn);

  // Schedules `fn` at absolute time `t` (clamped to >= now).
  EventId ScheduleAt(SimTime t, SimCallback fn);

  // Cancels a pending event. Returns true iff the event existed, had not fired,
  // and was not already cancelled — in exactly that case the callback will never
  // run. Ids of fired events return false (an id is dead the moment its callback
  // starts, including from inside that callback). Cancel never perturbs
  // bookkeeping: pending_events() stays exact under any Cancel sequence.
  bool Cancel(EventId id);

  // True iff `id` names an event that has neither fired (nor started firing) nor
  // been cancelled: exactly when Cancel(id) would return true. Stale ids, whose
  // slot has since been reused, are never pending.
  bool IsPending(EventId id) const;

  // Runs a single event; returns false if no pending events remain.
  bool Step();

  // Runs until the queue empties or Stop() is called.
  void Run();

  // Runs events with time <= t. If the run completes (queue drained past t and
  // Stop() was never called), now() is advanced to exactly t. If Stop() fires
  // mid-run, time FREEZES at the stopping event: now() stays at that event's
  // time rather than jumping to t, so a stopper can inspect or checkpoint the
  // world at the moment it halted. A later Run*/Step call resumes normally.
  void RunUntil(SimTime t);

  // Convenience: RunUntil(now + d).
  void RunFor(SimDuration d);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Exact count of scheduled-but-not-yet-fired events (cancelled events leave
  // the count immediately; fired events are never double-subtracted).
  size_t pending_events() const { return pending_; }
  uint64_t executed_events() const { return executed_; }

 private:
  // --- Wheel geometry --------------------------------------------------------
  // Three levels of 256 slots over 4.096 µs ticks: level 0 spans ~1 ms, level 1
  // ~268 ms, level 2 ~68.7 s. Events beyond the level-2 horizon wait in a
  // min-heap and migrate into the wheel as the cursor approaches them.
  static constexpr uint32_t kTickShift = 12;  // 1 tick = 4096 ns.
  static constexpr uint32_t kSlotBits = 8;
  static constexpr uint32_t kSlotCount = 1u << kSlotBits;   // 256
  static constexpr uint32_t kSlotMask = kSlotCount - 1;
  static constexpr int kLevels = 3;
  static constexpr uint64_t kWheelSpanTicks = 1ull << (kSlotBits * kLevels);
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  enum class RecState : uint8_t {
    kFree = 0,
    kInWheel,        // Linked into a wheel slot (level_/slot_ valid).
    kInOverflow,     // Waiting in the far-future heap.
    kInDue,          // Extracted into due_, awaiting firing.
    kCancelledDue,   // Cancelled while in due_; freed when drained past.
  };

  struct Rec {
    SimTime time = 0;
    uint64_t seq = 0;       // Monotonic schedule order: ties break FIFO.
    uint32_t next = kNil;   // Intrusive doubly-linked slot list / free list.
    uint32_t prev = kNil;
    uint32_t gen = 0;       // Bumped on free; stale EventIds mismatch.
    RecState state = RecState::kFree;
    uint8_t level = 0;      // Wheel position while kInWheel.
    uint8_t slot = 0;
    SimCallback cb;
  };

  struct Bitmap256 {
    uint64_t w[4] = {0, 0, 0, 0};
    void Set(uint32_t i) { w[i >> 6] |= 1ull << (i & 63); }
    void Clear(uint32_t i) { w[i >> 6] &= ~(1ull << (i & 63)); }
    bool Any() const { return (w[0] | w[1] | w[2] | w[3]) != 0; }
    // First set bit >= from, or -1. `from` may be kSlotCount (returns -1).
    int FindFrom(uint32_t from) const;
  };

  struct OverflowEntry {
    SimTime time;
    uint64_t seq;
    uint32_t rec;
    uint32_t gen;  // Stale (cancelled, slot reused) entries are skipped on pop.
  };
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // --- Slab ------------------------------------------------------------------
  static constexpr uint32_t kChunkShift = 10;  // 1024 records per chunk.
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  Rec& RecAt(uint32_t ri) { return chunks_[ri >> kChunkShift][ri & kChunkMask]; }
  const Rec& RecAt(uint32_t ri) const { return chunks_[ri >> kChunkShift][ri & kChunkMask]; }
  uint32_t AllocRec();
  void FreeRec(uint32_t ri);

  // --- Placement & advance ---------------------------------------------------
  static uint64_t TickOf(SimTime t) { return static_cast<uint64_t>(t) >> kTickShift; }

  EventId Place(uint32_t ri);              // User-path: may target due_ directly.
  void PlaceInWheel(uint32_t ri, uint64_t delta);  // delta in [0, kWheelSpanTicks).
  void PushSlot(int level, uint32_t slot, uint32_t ri);
  void UnlinkFromSlot(uint32_t ri);
  void CascadeSlot(int level, uint32_t slot);  // Re-places a slot's records.
  void LoadLevel0Slot(uint32_t slot);          // Slot -> due_, sorted (time, seq).
  void EnterWindow(uint64_t new_cur);          // Advance cursor, cascade crossings.
  void DrainOverflow();                        // Migrate in-horizon far timers.
  void InsertDueSorted(uint32_t ri);
  bool PrepareDue();                           // False iff no pending events.
  SimTime PeekNextTime();                      // kTimeNever iff none; skips cancelled.

  SimTime now_ = 0;
  bool stopped_ = false;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t pending_ = 0;

  uint64_t cur_tick_ = 0;      // Wheel cursor; may run ahead of TickOf(now_)
                               // after a structural peek — events landing behind
                               // it go straight into due_.
  size_t wheel_count_ = 0;     // Records currently linked into wheel slots.
  std::vector<uint32_t> slots_[kLevels];  // kSlotCount list heads per level.
  Bitmap256 occupied_[kLevels];

  // Events extracted for firing, ascending (time, seq); due_pos_ is the drain
  // cursor. New events that land at or behind cur_tick_ are merge-inserted.
  std::vector<uint32_t> due_;
  size_t due_pos_ = 0;

  std::priority_queue<OverflowEntry, std::vector<OverflowEntry>, OverflowLater> overflow_;

  std::vector<std::unique_ptr<Rec[]>> chunks_;
  uint32_t rec_count_ = 0;    // Total records ever materialized (all chunks).
  uint32_t free_head_ = kNil;
};

}  // namespace sns

#endif  // SRC_SIM_SIMULATOR_H_

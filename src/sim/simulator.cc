#include "src/sim/simulator.h"

#include <algorithm>

#include "src/obs/profiler.h"
#include "src/util/logging.h"

namespace sns {

namespace {

// EventId <-> (record index, generation). Index is biased by one so that the
// all-zero id stays invalid.
inline EventId MakeId(uint32_t ri, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | (static_cast<uint64_t>(ri) + 1);
}
inline bool SplitId(EventId id, uint32_t* ri, uint32_t* gen) {
  uint32_t lo = static_cast<uint32_t>(id & 0xFFFFFFFFull);
  if (lo == 0) return false;
  *ri = lo - 1;
  *gen = static_cast<uint32_t>(id >> 32);
  return true;
}

}  // namespace

int Simulator::Bitmap256::FindFrom(uint32_t from) const {
  if (from >= kSlotCount) return -1;
  uint32_t word = from >> 6;
  uint64_t masked = w[word] & (~0ull << (from & 63));
  while (true) {
    if (masked != 0) {
      return static_cast<int>((word << 6) + __builtin_ctzll(masked));
    }
    if (++word == 4) return -1;
    masked = w[word];
  }
}

Simulator::Simulator() {
  for (int l = 0; l < kLevels; ++l) {
    slots_[l].assign(kSlotCount, kNil);
  }
  Logger::Get().set_time_source([this] { return now_; });
}

Simulator::~Simulator() { Logger::Get().clear_time_source(); }

// --- Slab --------------------------------------------------------------------

uint32_t Simulator::AllocRec() {
  if (free_head_ != kNil) {
    uint32_t ri = free_head_;
    free_head_ = RecAt(ri).next;
    return ri;
  }
  if ((rec_count_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Rec[]>(kChunkSize));
  }
  return rec_count_++;
}

void Simulator::FreeRec(uint32_t ri) {
  Rec& r = RecAt(ri);
  r.cb.Reset();
  r.gen++;  // Invalidates every outstanding EventId for this slot.
  r.state = RecState::kFree;
  r.next = free_head_;
  r.prev = kNil;
  free_head_ = ri;
}

// --- Scheduling --------------------------------------------------------------

EventId Simulator::Schedule(SimDuration delay, SimCallback fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime t, SimCallback fn) {
  // Strided: schedule runs ~100 ns, so per-call clock reads would dominate.
  SNS_PROFILE_ZONE_STRIDE("sim.schedule", 7);
  if (t < now_) t = now_;
  uint32_t ri = AllocRec();
  Rec& r = RecAt(ri);
  r.time = t;
  r.seq = next_seq_++;
  r.cb = std::move(fn);
  ++pending_;
  return Place(ri);
}

EventId Simulator::Place(uint32_t ri) {
  Rec& r = RecAt(ri);
  uint64_t tick = TickOf(r.time);
  if (tick <= cur_tick_) {
    // At or behind the wheel cursor (which may have run ahead of now_ during a
    // structural peek): merge straight into the due list, keeping it sorted.
    r.state = RecState::kInDue;
    InsertDueSorted(ri);
  } else {
    uint64_t delta = tick - cur_tick_;
    if (delta < kWheelSpanTicks) {
      PlaceInWheel(ri, delta);
    } else {
      r.state = RecState::kInOverflow;
      overflow_.push(OverflowEntry{r.time, r.seq, ri, r.gen});
    }
  }
  return MakeId(ri, r.gen);
}

void Simulator::PlaceInWheel(uint32_t ri, uint64_t delta) {
  Rec& r = RecAt(ri);
  uint64_t tick = TickOf(r.time);
  int level;
  if (delta < (1ull << kSlotBits)) {
    level = 0;
  } else if (delta < (1ull << (2 * kSlotBits))) {
    level = 1;
  } else {
    level = 2;
  }
  uint32_t slot =
      static_cast<uint32_t>(tick >> (kSlotBits * level)) & kSlotMask;
  r.state = RecState::kInWheel;
  PushSlot(level, slot, ri);
}

void Simulator::PushSlot(int level, uint32_t slot, uint32_t ri) {
  Rec& r = RecAt(ri);
  r.level = static_cast<uint8_t>(level);
  r.slot = static_cast<uint8_t>(slot);
  uint32_t head = slots_[level][slot];
  r.next = head;
  r.prev = kNil;
  if (head != kNil) RecAt(head).prev = ri;
  slots_[level][slot] = ri;
  occupied_[level].Set(slot);
  ++wheel_count_;
}

void Simulator::UnlinkFromSlot(uint32_t ri) {
  Rec& r = RecAt(ri);
  if (r.prev != kNil) {
    RecAt(r.prev).next = r.next;
  } else {
    slots_[r.level][r.slot] = r.next;
    if (r.next == kNil) occupied_[r.level].Clear(r.slot);
  }
  if (r.next != kNil) RecAt(r.next).prev = r.prev;
  --wheel_count_;
}

// --- Cancellation ------------------------------------------------------------

bool Simulator::Cancel(EventId id) {
  SNS_PROFILE_ZONE_STRIDE("sim.cancel", 7);
  uint32_t ri, gen;
  if (!SplitId(id, &ri, &gen)) return false;
  if (ri >= rec_count_) return false;
  Rec& r = RecAt(ri);
  if (r.gen != gen) return false;  // Fired, cancelled, or slot reused: stale id.
  switch (r.state) {
    case RecState::kInWheel:
      UnlinkFromSlot(ri);
      FreeRec(ri);
      break;
    case RecState::kInDue:
      // Already extracted for firing; leave the entry in due_ (drain skips it)
      // but kill the callback now so captured state is released promptly.
      r.cb.Reset();
      r.state = RecState::kCancelledDue;
      break;
    case RecState::kInOverflow:
      // The heap entry goes stale (gen mismatch) and is skipped on pop.
      FreeRec(ri);
      break;
    case RecState::kFree:
    case RecState::kCancelledDue:
      return false;
  }
  --pending_;
  return true;
}

bool Simulator::IsPending(EventId id) const {
  uint32_t ri, gen;
  if (!SplitId(id, &ri, &gen) || ri >= rec_count_) return false;
  const Rec& r = RecAt(ri);
  return r.gen == gen && r.state != RecState::kFree && r.state != RecState::kCancelledDue;
}

// --- Cursor advance ----------------------------------------------------------

void Simulator::InsertDueSorted(uint32_t ri) {
  auto it = std::upper_bound(
      due_.begin() + static_cast<ptrdiff_t>(due_pos_), due_.end(), ri,
      [this](uint32_t a, uint32_t b) {
        const Rec& ra = RecAt(a);
        const Rec& rb = RecAt(b);
        if (ra.time != rb.time) return ra.time < rb.time;
        return ra.seq < rb.seq;
      });
  due_.insert(it, ri);
}

void Simulator::LoadLevel0Slot(uint32_t slot) {
  uint32_t ri = slots_[0][slot];
  slots_[0][slot] = kNil;
  occupied_[0].Clear(slot);
  size_t start = due_.size();
  while (ri != kNil) {
    Rec& r = RecAt(ri);
    uint32_t next = r.next;
    r.state = RecState::kInDue;
    r.next = kNil;
    r.prev = kNil;
    due_.push_back(ri);
    --wheel_count_;
    ri = next;
  }
  std::sort(due_.begin() + static_cast<ptrdiff_t>(start), due_.end(),
            [this](uint32_t a, uint32_t b) {
              const Rec& ra = RecAt(a);
              const Rec& rb = RecAt(b);
              if (ra.time != rb.time) return ra.time < rb.time;
              return ra.seq < rb.seq;
            });
}

void Simulator::CascadeSlot(int level, uint32_t slot) {
  uint32_t ri = slots_[level][slot];
  slots_[level][slot] = kNil;
  occupied_[level].Clear(slot);
  while (ri != kNil) {
    Rec& r = RecAt(ri);
    uint32_t next = r.next;
    --wheel_count_;
    uint64_t tick = TickOf(r.time);
    // cur_tick_ is already the new window base, so the record's recomputed
    // delta lands it on a lower level (or this level's correct post-wrap slot).
    if (tick <= cur_tick_) {
      r.state = RecState::kInDue;
      InsertDueSorted(ri);
    } else {
      PlaceInWheel(ri, tick - cur_tick_);
    }
    ri = next;
  }
}

void Simulator::EnterWindow(uint64_t new_cur) {
  bool crossed_l1_epoch =
      (new_cur >> (2 * kSlotBits)) != (cur_tick_ >> (2 * kSlotBits));
  cur_tick_ = new_cur;
  if (crossed_l1_epoch) {
    CascadeSlot(2, static_cast<uint32_t>(new_cur >> (2 * kSlotBits)) & kSlotMask);
  }
  CascadeSlot(1, static_cast<uint32_t>(new_cur >> kSlotBits) & kSlotMask);
}

void Simulator::DrainOverflow() {
  while (!overflow_.empty()) {
    const OverflowEntry& top = overflow_.top();
    Rec& r = RecAt(top.rec);
    if (r.gen != top.gen || r.state != RecState::kInOverflow) {
      overflow_.pop();  // Cancelled (slot freed or reused) — drop the husk.
      continue;
    }
    uint64_t tick = TickOf(r.time);
    if (tick >= cur_tick_ + kWheelSpanTicks) break;
    uint32_t ri = top.rec;
    overflow_.pop();
    if (tick <= cur_tick_) {
      r.state = RecState::kInDue;
      InsertDueSorted(ri);
    } else {
      PlaceInWheel(ri, tick - cur_tick_);
    }
  }
}

bool Simulator::PrepareDue() {
  // Compact the drained prefix once it pays for itself.
  if (due_pos_ == due_.size()) {
    due_.clear();
    due_pos_ = 0;
  } else if (due_pos_ > 4096 && due_pos_ * 2 > due_.size()) {
    due_.erase(due_.begin(), due_.begin() + static_cast<ptrdiff_t>(due_pos_));
    due_pos_ = 0;
  }
  while (due_pos_ == due_.size()) {
    if (wheel_count_ == 0) {
      // Wheel empty: jump the cursor straight to the earliest live far timer.
      bool found = false;
      while (!overflow_.empty()) {
        const OverflowEntry& top = overflow_.top();
        const Rec& r = RecAt(top.rec);
        if (r.gen != top.gen || r.state != RecState::kInOverflow) {
          overflow_.pop();
          continue;
        }
        found = true;
        break;
      }
      if (!found) return false;
      uint64_t target = TickOf(overflow_.top().time);
      if (target > cur_tick_) EnterWindow(target);
      DrainOverflow();
      continue;
    }
    // Migrate far timers whose tick has entered the wheel horizon BEFORE
    // choosing where to jump — otherwise a jump could leapfrog one.
    DrainOverflow();
    uint32_t idx0 = static_cast<uint32_t>(cur_tick_) & kSlotMask;
    int s = occupied_[0].FindFrom(idx0);
    if (s >= 0) {
      cur_tick_ = (cur_tick_ & ~static_cast<uint64_t>(kSlotMask)) |
                  static_cast<uint64_t>(s);
      LoadLevel0Slot(static_cast<uint32_t>(s));
      continue;
    }
    if (occupied_[0].Any()) {
      // Occupied level-0 slots exist but all wrapped past this window's end:
      // step to the next level-1 window, which re-routes them forward.
      EnterWindow((cur_tick_ | kSlotMask) + 1);
      continue;
    }
    uint32_t idx1 = static_cast<uint32_t>(cur_tick_ >> kSlotBits) & kSlotMask;
    s = occupied_[1].FindFrom(idx1 + 1);
    if (s >= 0) {
      EnterWindow((cur_tick_ & ~((1ull << (2 * kSlotBits)) - 1)) |
                  (static_cast<uint64_t>(s) << kSlotBits));
      continue;
    }
    if (occupied_[1].Any()) {
      EnterWindow((cur_tick_ | ((1ull << (2 * kSlotBits)) - 1)) + 1);
      continue;
    }
    uint32_t idx2 =
        static_cast<uint32_t>(cur_tick_ >> (2 * kSlotBits)) & kSlotMask;
    s = occupied_[2].FindFrom(idx2 + 1);
    if (s >= 0) {
      EnterWindow((cur_tick_ & ~(kWheelSpanTicks - 1)) |
                  (static_cast<uint64_t>(s) << (2 * kSlotBits)));
      continue;
    }
    // Level 2 occupied only by wrapped slots: advance a full level-2 epoch.
    EnterWindow((cur_tick_ | (kWheelSpanTicks - 1)) + 1);
  }
  return true;
}

SimTime Simulator::PeekNextTime() {
  while (true) {
    if (!PrepareDue()) return kTimeNever;
    Rec& r = RecAt(due_[due_pos_]);
    if (r.state == RecState::kCancelledDue) {
      FreeRec(due_[due_pos_]);
      ++due_pos_;
      continue;
    }
    return r.time;
  }
}

// --- Execution ---------------------------------------------------------------

bool Simulator::Step() {
  uint32_t ri;
  {
    // Wheel bookkeeping: cursor advance, cascades, due extraction.
    SNS_PROFILE_ZONE_STRIDE("sim.fire", 6);
    if (PeekNextTime() == kTimeNever) return false;
    ri = due_[due_pos_++];
    Rec& r = RecAt(ri);
    now_ = r.time;
    // Stale before invoking: Cancel(this event's id) inside the callback is a
    // no-op. The record leaves due_ but reaches the free list only once the
    // callback has returned, so the callback runs in place.
    r.gen++;
    --pending_;
    ++executed_;
  }
  {
    // Callback execution: everything the event actually does.
    SNS_PROFILE_ZONE_STRIDE("sim.dispatch", 6);
    RecAt(ri).cb();  // Chunks never move, so the record outlives slab growth.
  }
  FreeRec(ri);
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    SimTime next = PeekNextTime();
    if (next == kTimeNever || next > t) break;
    Step();
  }
  // Contract: Stop() freezes time at the stopping event; only a completed run
  // fast-forwards the clock to the requested boundary.
  if (!stopped_ && now_ < t) now_ = t;
}

void Simulator::RunFor(SimDuration d) { RunUntil(now_ + d); }

}  // namespace sns

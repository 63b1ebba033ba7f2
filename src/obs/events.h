// Flight-recorder event log: SAN message lifecycle events and injected-fault
// instants, collected on one sim-time timeline.
//
// Spans (src/obs/trace.h) show what each component did; this log adds the edges
// between them — every traced message's send, deliver, or drop, correlated by a
// per-message sequence number — plus the faults the chaos harness injected. The
// faults reach the run artifact's availability section, where tools/render_trace
// draws them on the exemplar spans' timeline; the message events are read by
// the benchmark's latency probe (perfbench/sns_bench.cc).
//
// This layer deliberately knows nothing about src/net types (net links obs, not
// the reverse): nodes are raw int32 ids, message types raw uint32s.

#ifndef SRC_OBS_EVENTS_H_
#define SRC_OBS_EVENTS_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/util/time.h"

namespace sns {

// One step in a SAN message's life. Send/Deliver pairs share a seq; a Drop
// terminates the message's timeline instead of a Deliver.
struct SanEvent {
  enum class Kind { kSend, kDeliver, kDrop };

  Kind kind = Kind::kSend;
  uint64_t seq = 0;  // Correlates the send with its deliver/drop.
  SimTime at = 0;
  int32_t src_node = -1;
  int32_t dst_node = -1;
  uint32_t msg_type = 0;
  int64_t size_bytes = 0;
  uint64_t trace_id = 0;  // The request trace the message was stamped with.
  uint64_t span_id = 0;
  // Drop reason ("unreachable", "saturated", ...), else empty. A string literal:
  // the log stores the pointer, not a copy.
  const char* detail = "";
};

// A fault the injector applied (process crash, node outage, partition, beacon
// loss), as a point on the timeline.
struct FaultInstant {
  SimTime at = 0;
  std::string what;  // e.g. "crash pid 7", "partition group 1 (2 nodes)".
};

// Bounded FIFO store for both event classes. Long experiments keep the tail;
// exports stay bounded.
class EventLog {
 public:
  explicit EventLog(size_t max_messages = 65536, size_t max_faults = 4096)
      : max_messages_(max_messages), max_faults_(max_faults) {}

  // Allocates the next message sequence number (the SAN stamps one per traced send).
  uint64_t NextSeq() { return next_seq_++; }

  void RecordMessage(SanEvent ev);
  void RecordFault(FaultInstant ev);

  const std::deque<SanEvent>& messages() const { return messages_; }
  const std::deque<FaultInstant>& faults() const { return faults_; }
  // Total events ever recorded (including those evicted from the ring).
  int64_t messages_recorded() const { return messages_recorded_; }
  int64_t faults_recorded() const { return faults_recorded_; }

 private:
  size_t max_messages_;
  size_t max_faults_;
  uint64_t next_seq_ = 1;
  int64_t messages_recorded_ = 0;
  int64_t faults_recorded_ = 0;
  std::deque<SanEvent> messages_;
  std::deque<FaultInstant> faults_;
};

}  // namespace sns

#endif  // SRC_OBS_EVENTS_H_

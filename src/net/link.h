// A simplex network link with finite bandwidth, per-message processing overhead, and
// a bounded queue.
//
// Each node attaches to the SAN switch through one egress and one ingress link. A
// message occupies the link for `overhead + bits/bandwidth`; messages queue FIFO.
// Datagrams whose queueing delay would exceed the configured bound are dropped —
// this is how the model reproduces the paper's §4.6 observation that on a saturated
// 10 Mb/s SAN the unreliable multicast control traffic is lost, crippling load
// balancing, while on 100 Mb/s it is not.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/util/time.h"

namespace sns {

struct LinkConfig {
  double bandwidth_bps = 100e6;          // 100 Mb/s switched Ethernet default.
  SimDuration per_message_overhead = Microseconds(100);  // NIC/kernel per-packet cost.
  SimDuration max_datagram_queue_delay = Milliseconds(50);  // Drop threshold.
};

class Link {
 public:
  Link(std::string name, LinkConfig config)
      : name_(std::move(name)), config_(config) {}

  // Attempts to transmit `size_bytes` starting no earlier than `now`. Returns the
  // time the last bit leaves the link (before propagation), or nullopt if the
  // message was dropped (only possible when drop_if_saturated is true).
  std::optional<SimTime> Transmit(SimTime now, int64_t size_bytes, bool drop_if_saturated);

  // Serialization time for a message of this size on this link.
  SimDuration ServiceTime(int64_t size_bytes) const;

  SimTime busy_until() const { return busy_until_; }

  // Observability for the monitor and the saturation benchmarks.
  int64_t messages_sent() const { return messages_sent_; }
  int64_t messages_dropped() const { return messages_dropped_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  SimDuration busy_time() const { return busy_time_; }

  // Mean utilization in [0,1] over [0, now].
  double Utilization(SimTime now) const;

  const std::string& name() const { return name_; }
  void set_config(const LinkConfig& config) { config_ = config; }

 private:
  std::string name_;
  LinkConfig config_;
  SimTime busy_until_ = 0;
  int64_t messages_sent_ = 0;
  int64_t messages_dropped_ = 0;
  int64_t bytes_sent_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace sns

#endif  // SRC_NET_LINK_H_

#include "src/net/san.h"

#include <algorithm>
#include <utility>

#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// Wire size of handshake packets charged to both NICs on connection setup.
constexpr int64_t kHandshakeBytes = 40;

}  // namespace

San::San(Simulator* sim, SanConfig config) : sim_(sim), config_(config) {}

void San::BindMetrics(MetricsRegistry* registry) {
  ctr_delivered_ = registry->GetCounter("san.messages_delivered");
  ctr_datagrams_dropped_ = registry->GetCounter("san.datagrams_dropped");
  ctr_failed_fast_ = registry->GetCounter("san.reliable_failed_fast");
  ctr_lost_unreachable_ = registry->GetCounter("san.messages_lost_unreachable");
  ctr_multicast_suppressed_ = registry->GetCounter("san.multicast_suppressed");
  // Binding mid-run re-baselines the registry view from the cumulative members.
  ctr_delivered_->Increment(messages_delivered_ - ctr_delivered_->value());
  ctr_datagrams_dropped_->Increment(datagrams_dropped_ - ctr_datagrams_dropped_->value());
  ctr_failed_fast_->Increment(reliable_failed_fast_ - ctr_failed_fast_->value());
  ctr_lost_unreachable_->Increment(messages_lost_unreachable_ - ctr_lost_unreachable_->value());
  ctr_multicast_suppressed_->Increment(multicast_suppressed_ -
                                       ctr_multicast_suppressed_->value());
}

void San::LogEvent(SanEvent::Kind kind, const Message& msg, uint64_t seq, const char* detail) {
  if (event_log_ == nullptr || seq == 0) {
    return;
  }
  SanEvent ev;
  ev.kind = kind;
  ev.seq = seq;
  ev.at = sim_->now();
  ev.src_node = msg.src.node;
  ev.dst_node = msg.dst.node;
  ev.msg_type = msg.type;
  ev.size_bytes = msg.size_bytes;
  ev.trace_id = msg.trace.trace_id;
  ev.span_id = msg.trace.span_id;
  ev.detail = detail;
  event_log_->RecordMessage(std::move(ev));
}

void San::AddNode(NodeId node) { AddNode(node, config_.default_link); }

void San::AddNode(NodeId node, const LinkConfig& link) {
  if (node < 0) {
    return;
  }
  if (static_cast<size_t>(node) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(node) + 1);
  }
  NodeState& state = nodes_[static_cast<size_t>(node)];
  state.egress = std::make_unique<Link>(StrFormat("n%d.egress", node), link);
  state.ingress = std::make_unique<Link>(StrFormat("n%d.ingress", node), link);
  state.up = true;
  state.partition_group = 0;
}

bool San::HasNode(NodeId node) const { return GetNode(node) != nullptr; }

void San::SetNodeLinkConfig(NodeId node, const LinkConfig& link) {
  NodeState* state = GetNode(node);
  if (state != nullptr) {
    state->egress->set_config(link);
    state->ingress->set_config(link);
  }
}

Link* San::egress(NodeId node) {
  NodeState* state = GetNode(node);
  return state != nullptr ? state->egress.get() : nullptr;
}

Link* San::ingress(NodeId node) {
  NodeState* state = GetNode(node);
  return state != nullptr ? state->ingress.get() : nullptr;
}

San::NodeState* San::GetNode(NodeId node) {
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) {
    return nullptr;
  }
  NodeState& state = nodes_[static_cast<size_t>(node)];
  return state.exists() ? &state : nullptr;
}

const San::NodeState* San::GetNode(NodeId node) const {
  return const_cast<San*>(this)->GetNode(node);
}

void San::Bind(const Endpoint& ep, MessageHandler handler) {
  handlers_.Set(PackEndpoint(ep), std::move(handler));
}

void San::Unbind(const Endpoint& ep) {
  handlers_.Erase(PackEndpoint(ep));
  // Tear down cached connections touching this endpoint so the next sender pays
  // setup again and dead-process sends can fail fast.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->src == ep || it->dst == ep) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  std::pair<NodeId, Port> member{ep.node, ep.port};
  for (GroupState& group : groups_) {
    auto it = std::lower_bound(group.members.begin(), group.members.end(), member);
    if (it != group.members.end() && *it == member) {
      group.members.erase(it);
    }
  }
}

bool San::IsBound(const Endpoint& ep) const {
  return handlers_.Find(PackEndpoint(ep)) != nullptr;
}

void San::Send(Message msg, SendOptions opts) {
  SNS_PROFILE_ZONE_STRIDE("san.route", 4);
  msg.sent_at = sim_->now();
  uint64_t seq = (event_log_ != nullptr && msg.trace.valid()) ? event_log_->NextSeq() : 0;
  LogEvent(SanEvent::Kind::kSend, msg, seq, "");
  NodeState* src_node = GetNode(msg.src.node);
  if (src_node == nullptr || !src_node->up) {
    CountLost();
    LogEvent(SanEvent::Kind::kDrop, msg, seq, "unreachable");
    return;
  }
  bool reliable = msg.transport == Transport::kReliable;
  bool setup = false;
  if (reliable) {
    ConnKey key{msg.src, msg.dst};
    if (opts.force_new_connection || connections_.count(key) == 0) {
      setup = true;
      if (!opts.force_new_connection) {
        connections_.insert(key);
      }
    }
  }
  if (setup) {
    // Handshake packets occupy the sender's NIC before the payload.
    src_node->egress->Transmit(sim_->now(), kHandshakeBytes, false);
  }
  auto departure =
      src_node->egress->Transmit(sim_->now(), msg.size_bytes, /*drop_if_saturated=*/!reliable);
  if (!departure.has_value()) {
    CountDropped();
    LogEvent(SanEvent::Kind::kDrop, msg, seq, "saturated");
    return;
  }
  SimTime arrival = *departure + src_node->egress->propagation();
  DeliverToNode(std::move(msg), arrival, setup, std::move(opts), seq);
}

void San::DeliverToNode(Message msg, SimTime arrival, bool setup, SendOptions opts,
                        uint64_t seq) {
  // Both hop lambdas are `mutable` and hand the Message onward by move: one
  // in-flight message performs zero Message copies and zero payload-refcount
  // round-trips between Send() and the handler. Their capture sets are sized to
  // stay within SimCallback's inline storage — growing either is a perf bug.
  sim_->ScheduleAt(arrival, [this, msg = std::move(msg), setup, opts = std::move(opts),
                             seq]() mutable {
    NodeState* src_node = GetNode(msg.src.node);
    NodeState* dst_node = GetNode(msg.dst.node);
    bool reliable = msg.transport == Transport::kReliable;
    if (src_node == nullptr || dst_node == nullptr || !src_node->up || !dst_node->up ||
        !Reachable(msg.src.node, msg.dst.node)) {
      CountLost();
      LogEvent(SanEvent::Kind::kDrop, msg, seq, "unreachable");
      return;
    }
    if (setup) {
      dst_node->ingress->Transmit(sim_->now(), kHandshakeBytes, false);
    }
    auto finish = dst_node->ingress->Transmit(sim_->now(), msg.size_bytes,
                                              /*drop_if_saturated=*/!reliable);
    if (!finish.has_value()) {
      CountDropped();
      LogEvent(SanEvent::Kind::kDrop, msg, seq, "saturated");
      return;
    }
    SimTime deliver_at = *finish + dst_node->ingress->propagation();
    if (setup) {
      deliver_at += config_.tcp_setup_cost;
    }
    sim_->ScheduleAt(deliver_at,
                     [this, msg = std::move(msg), opts = std::move(opts), seq]() mutable {
                       FinalDeliver(msg, opts, seq);
                     });
  });
}

void San::FinalDeliver(const Message& msg, const SendOptions& opts, uint64_t seq) {
  SNS_PROFILE_ZONE_STRIDE("san.deliver", 4);
  const NodeState* dst_node = GetNode(msg.dst.node);
  if (dst_node == nullptr || !dst_node->up || !Reachable(msg.src.node, msg.dst.node)) {
    CountLost();
    LogEvent(SanEvent::Kind::kDrop, msg, seq, "unreachable");
    return;
  }
  const MessageHandler* bound = handlers_.Find(PackEndpoint(msg.dst));
  if (bound == nullptr) {
    if (msg.transport == Transport::kReliable) {
      ++reliable_failed_fast_;
      if (ctr_failed_fast_ != nullptr) ctr_failed_fast_->Increment();
      LogEvent(SanEvent::Kind::kDrop, msg, seq, "no_handler");
      if (opts.on_failed) {
        opts.on_failed(msg);
      }
    } else {
      CountLost();
      LogEvent(SanEvent::Kind::kDrop, msg, seq, "no_handler");
    }
    return;
  }
  ++messages_delivered_;
  if (ctr_delivered_ != nullptr) ctr_delivered_->Increment();
  LogEvent(SanEvent::Kind::kDeliver, msg, seq, "");
  // Copy the handler: the callee may unbind (e.g., crash) during handling.
  MessageHandler handler = *bound;
  handler(msg);
}

void San::JoinGroup(McastGroup group, const Endpoint& ep) {
  if (group < 0) {
    return;
  }
  if (static_cast<size_t>(group) >= groups_.size()) {
    groups_.resize(static_cast<size_t>(group) + 1);
  }
  auto& members = groups_[static_cast<size_t>(group)].members;
  std::pair<NodeId, Port> member{ep.node, ep.port};
  auto it = std::lower_bound(members.begin(), members.end(), member);
  if (it == members.end() || *it != member) {
    members.insert(it, member);
  }
}

void San::LeaveGroup(McastGroup group, const Endpoint& ep) {
  if (group < 0 || static_cast<size_t>(group) >= groups_.size()) {
    return;
  }
  auto& members = groups_[static_cast<size_t>(group)].members;
  std::pair<NodeId, Port> member{ep.node, ep.port};
  auto it = std::lower_bound(members.begin(), members.end(), member);
  if (it != members.end() && *it == member) {
    members.erase(it);
  }
}

size_t San::GroupSize(McastGroup group) const {
  if (group < 0 || static_cast<size_t>(group) >= groups_.size()) {
    return 0;
  }
  return groups_[static_cast<size_t>(group)].members.size();
}

void San::SendMulticast(McastGroup group, Message msg) {
  SNS_PROFILE_ZONE_STRIDE("san.route", 4);
  GroupState* gs = (group >= 0 && static_cast<size_t>(group) < groups_.size())
                       ? &groups_[static_cast<size_t>(group)]
                       : nullptr;
  if (gs != nullptr && gs->drop_until != 0) {
    if (sim_->now() < gs->drop_until) {
      ++multicast_suppressed_;
      if (ctr_multicast_suppressed_ != nullptr) ctr_multicast_suppressed_->Increment();
      return;
    }
    gs->drop_until = 0;  // Window elapsed.
  }
  msg.sent_at = sim_->now();
  msg.transport = Transport::kDatagram;
  msg.group = group;
  NodeState* src_node = GetNode(msg.src.node);
  if (src_node == nullptr || !src_node->up) {
    CountLost();
    return;
  }
  if (gs == nullptr || gs->members.empty()) {
    return;
  }
  // One egress transmission; the switch replicates to each subscriber.
  auto departure = src_node->egress->Transmit(sim_->now(), msg.size_bytes, true);
  if (!departure.has_value()) {
    CountDropped();
    return;
  }
  SimTime arrival = *departure + src_node->egress->propagation();
  for (const auto& [node, port] : gs->members) {
    if (node == msg.src.node && port == msg.src.port) {
      continue;  // Don't loop back to the sender.
    }
    Message copy = msg;
    copy.dst = Endpoint{node, port};
    // Each replica gets its own lifecycle on the timeline.
    uint64_t seq = (event_log_ != nullptr && copy.trace.valid()) ? event_log_->NextSeq() : 0;
    LogEvent(SanEvent::Kind::kSend, copy, seq, "");
    DeliverToNode(std::move(copy), arrival, /*setup=*/false, SendOptions{}, seq);
  }
}

void San::SetPartition(NodeId node, int32_t partition_group) {
  NodeState* state = GetNode(node);
  if (state != nullptr) {
    state->partition_group = partition_group;
  }
}

void San::HealPartitions() {
  for (NodeState& state : nodes_) {
    state.partition_group = 0;
  }
}

void San::HealPartition(int32_t partition_group) {
  if (partition_group == 0) {
    return;  // Group 0 is the default side; "healing" it is meaningless.
  }
  for (NodeState& state : nodes_) {
    if (state.partition_group == partition_group) {
      state.partition_group = 0;
    }
  }
}

int32_t San::PartitionGroupOf(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state != nullptr ? state->partition_group : 0;
}

void San::DropMulticastUntil(McastGroup group, SimTime until) {
  if (group < 0) {
    return;
  }
  if (static_cast<size_t>(group) >= groups_.size()) {
    groups_.resize(static_cast<size_t>(group) + 1);
  }
  groups_[static_cast<size_t>(group)].drop_until = until;
}

bool San::Reachable(NodeId a, NodeId b) const {
  const NodeState* na = GetNode(a);
  const NodeState* nb = GetNode(b);
  if (na == nullptr || nb == nullptr) {
    return false;
  }
  return na->partition_group == nb->partition_group;
}

void San::SetNodeUp(NodeId node, bool up) {
  NodeState* state = GetNode(node);
  if (state != nullptr) {
    state->up = up;
  }
}

bool San::NodeUp(NodeId node) const {
  const NodeState* state = GetNode(node);
  return state != nullptr && state->up;
}

std::vector<NodeId> San::Nodes() const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].exists()) {
      out.push_back(static_cast<NodeId>(i));
    }
  }
  return out;
}

}  // namespace sns

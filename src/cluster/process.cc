#include "src/cluster/process.h"

#include "src/cluster/cluster.h"

namespace sns {

Simulator* Process::sim() const { return cluster_->sim(); }

San* Process::san() const { return cluster_->san(); }

MetricsRegistry* Process::metrics() const { return cluster_->metrics(); }

TraceCollector* Process::tracer() const { return cluster_->tracer(); }

TraceContext Process::StartTrace() const { return cluster_->tracer()->StartTrace(); }

TraceContext Process::ChildSpan(const TraceContext& parent) const {
  return cluster_->tracer()->ChildOf(parent);
}

void Process::RecordSpan(const TraceContext& ctx, std::string_view operation, SimTime start,
                         std::string_view outcome) const {
  if (!ctx.valid()) {
    return;
  }
  SpanRecord span;
  span.trace_id = ctx.trace_id;
  span.span_id = ctx.span_id;
  span.parent_span_id = ctx.parent_span_id;
  span.component = span_component_;
  span.operation = operation;
  span.node = endpoint_.node;
  span.start = start;
  span.end = sim()->now();
  span.outcome = outcome;
  cluster_->tracer()->Record(span);
}

void Process::Send(Message msg, San::SendOptions opts) {
  msg.src = endpoint_;
  san()->Send(std::move(msg), std::move(opts));
}

void Process::SendMulticast(McastGroup group, Message msg) {
  msg.src = endpoint_;
  san()->SendMulticast(group, std::move(msg));
}

void Process::JoinGroup(McastGroup group) { san()->JoinGroup(group, endpoint_); }

void Process::LeaveGroup(McastGroup group) { san()->LeaveGroup(group, endpoint_); }

void Process::RunOnCpu(SimDuration cpu_time, SimTask done) {
  cluster_->RunOnCpu(endpoint_.node, pid_, cpu_time, std::move(done));
}

EventId Process::After(SimDuration delay, SimTask fn) {
  if (pending_timers_.size() == pending_timers_.capacity()) {
    // Drop the ids of fired and cancelled timers before the vector would grow.
    // If most survive, grow anyway so the next scan is as many timers away.
    Simulator* s = sim();
    std::erase_if(pending_timers_, [s](EventId id) { return !s->IsPending(id); });
    if (pending_timers_.size() * 2 > pending_timers_.capacity()) {
      pending_timers_.reserve(pending_timers_.capacity() * 2);
    }
  }
  auto timer = [this, fn = std::move(fn)]() mutable {
    // The cluster cancels pending timers on death, so reaching here implies alive;
    // still guard for robustness against same-timestamp orderings.
    if (!running_) {
      return;
    }
    fn();
  };
  static_assert(sizeof(timer) <= SimCallback::kInlineCapacity);
  EventId id = sim()->Schedule(delay, std::move(timer));
  pending_timers_.push_back(id);
  return id;
}

void Process::CancelTimer(EventId id) { sim()->Cancel(id); }

void Process::CrashSelf() {
  Cluster* owner = cluster_;
  ProcessId me = pid_;
  sim()->Schedule(0, [owner, me] {
    if (owner->Find(me) != nullptr) {
      owner->Crash(me);
    }
  });
}

}  // namespace sns

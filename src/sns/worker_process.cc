#include "src/sns/worker_process.h"

#include "src/cluster/cluster.h"
#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

WorkerProcess::WorkerProcess(TaccWorkerPtr worker)
    : Process("worker:" + worker->type()),
      worker_(std::move(worker)),
      type_(worker_->type()) {}

void WorkerProcess::OnStart() {
  std::string prefix = StrFormat("worker.%s.p%lld.", type_.c_str(), static_cast<long long>(pid()));
  completed_ = metrics()->GetCounter(prefix + "completed_tasks");
  rejected_ = metrics()->GetCounter(prefix + "rejected_tasks");
  expired_ = metrics()->GetCounter(prefix + "expired_tasks");
  queue_gauge_ = metrics()->GetGauge(prefix + "queue_length");
  JoinGroup(kGroupManagerBeacon);
  report_timer_ = std::make_unique<PeriodicTimer>(sim(), kLoadReportPeriod,
                                                  [this] { ReportLoad(); });
  // Stagger reports across workers so hundreds of colocated distillers don't
  // synchronize their announcements into one burst at the manager's NIC.
  auto stagger = static_cast<SimDuration>(
      (static_cast<uint64_t>(pid()) * 0x9E3779B97F4A7C15ULL) %
      static_cast<uint64_t>(kLoadReportPeriod));
  report_timer_->StartWithDelay(stagger + Milliseconds(1));
}

void WorkerProcess::OnStop() {
  report_timer_.reset();
  LeaveGroup(kGroupManagerBeacon);
}

void WorkerProcess::OnMessage(const Message& msg) {
  switch (msg.type) {
    case kMsgManagerBeacon:
      HandleBeacon(static_cast<const ManagerBeaconPayload&>(*msg.payload));
      break;
    case kMsgTaskRequest:
      HandleTask(msg);
      break;
    default:
      break;
  }
}

void WorkerProcess::HandleBeacon(const ManagerBeaconPayload& beacon) {
  if (manager_.Follow(beacon) == ManagerLink::Sighting::kNew) {
    // New manager incarnation (first sighting, or restart after a crash):
    // re-register. No other recovery is needed — all our state is re-derivable.
    Send(manager_.Registration(Load()));
  }
}

LoadReportPayload WorkerProcess::Load() const {
  LoadReportPayload load;
  load.kind = ComponentKind::kWorker;
  load.worker_type = type_;
  load.component = endpoint();
  load.queue_length = QueueLength();
  load.completed_tasks = completed_tasks();
  load.interchangeable = worker_->interchangeable();
  return load;
}

void WorkerProcess::ExpireTask(const TaskRequestPayload& task, const TraceContext& span,
                               SimTime start) {
  // The front end gave up on this task at its deadline; burning distiller CPU on
  // it now would only starve tasks that can still meet theirs. Reply anyway so
  // the (possibly retried) task id is settled instead of timing out again.
  expired_->Increment();
  RecordSpan(span, "worker.task", start, "expired");
  auto reply = std::make_shared<TaskResponsePayload>();
  reply->task_id = task.task_id;
  reply->status = TimeoutError("task deadline expired at worker");
  reply->worker_type = type_;
  Message out;
  out.dst = task.reply_to;
  out.type = kMsgTaskResponse;
  out.transport = Transport::kReliable;
  out.size_bytes = WireSizeOf(*reply);
  out.payload = reply;
  out.trace = span;
  Send(std::move(out));
}

void WorkerProcess::RejectTask(const TaskRequestPayload& task, const TraceContext& span,
                               const std::string& reason) {
  rejected_->Increment();
  RecordSpan(span, "worker.task", sim()->now(), "rejected");
  auto reply = std::make_shared<TaskResponsePayload>();
  reply->task_id = task.task_id;
  reply->status = ResourceExhaustedError(reason);
  reply->worker_type = type_;
  Message out;
  out.dst = task.reply_to;
  out.type = kMsgTaskResponse;
  out.transport = Transport::kReliable;
  out.size_bytes = WireSizeOf(*reply);
  out.payload = reply;
  out.trace = span;
  Send(std::move(out));
}

void WorkerProcess::HandleTask(const Message& msg) {
  auto task = std::static_pointer_cast<const TaskRequestPayload>(msg.payload);
  if (task->deadline != kTimeNever && sim()->now() >= task->deadline) {
    ExpireTask(*task, ChildSpan(msg.trace), sim()->now());
    return;
  }
  if (queue_.size() >= kQueueCapacity) {
    RejectTask(*task, ChildSpan(msg.trace), "worker queue full");
    return;
  }
  TaccRequest probe;
  probe.url = task->url;
  probe.inputs = task->inputs;
  probe.args = task->args;
  SimDuration cost = worker_->EstimateCost(probe);
  // Deadline-aware admission: if the queued backlog plus this task's own cost
  // cannot fit inside the remaining budget, refuse now rather than let the task
  // queue up and expire at its deadline. The front end falls back to an
  // approximate answer while there is still time to deliver it (§3.1.8).
  if (task->deadline != kTimeNever &&
      sim()->now() + queued_cost_ + cost + kTaskAdmissionHeadroom >
          task->deadline) {
    RejectTask(*task, ChildSpan(msg.trace), "queued backlog exceeds deadline budget");
    return;
  }
  queued_cost_ += cost;
  QueuedTask queued{std::move(task), cost, ChildSpan(msg.trace), sim()->now()};
  queue_.push_back(std::move(queued));
  if (!busy_) {
    StartNext();
  }
}

void WorkerProcess::StartNext() {
  // Tasks whose deadline passed while queued are shed before claiming the CPU.
  while (!queue_.empty() && queue_.front().payload->deadline != kTimeNever &&
         sim()->now() >= queue_.front().payload->deadline) {
    QueuedTask expired = std::move(queue_.front());
    queue_.pop_front();
    queued_cost_ -= expired.estimated_cost;
    ExpireTask(*expired.payload, expired.trace, expired.enqueued_at);
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  QueuedTask queued = std::move(queue_.front());
  queue_.pop_front();
  auto task = std::move(queued.payload);

  TaccRequest request;
  request.url = task->url;
  request.inputs = task->inputs;
  request.profile = task->profile;
  request.args = task->args;

  SimDuration cost = queued.estimated_cost;
  TraceContext span = queued.trace;
  SimTime enqueued_at = queued.enqueued_at;
  if (sim()->now() > enqueued_at) {
    // Sub-span: time queued behind earlier tasks, distinct from the compute below.
    RecordSpan(ChildSpan(span), "worker.queue_wait", enqueued_at, "ok");
  }
  SimTime service_start = sim()->now();
  RunOnCpu(cost, [this, cost, task, span, enqueued_at, service_start,
                  request = std::move(request)] {
    SNS_PROFILE_ZONE("worker.task");
    queued_cost_ -= cost;
    // Pathological input: the worker code crashes. The SNS layer's process-peer
    // fault tolerance masks this — no reply is sent; the front end times out or
    // sees a broken connection and retries elsewhere (§3.1.6).
    if (request.args.count("__poison") > 0) {
      SNS_LOG(kInfo, "worker") << type_ << " crashed on pathological input " << request.url;
      cluster()->Crash(pid());
      return;
    }
    TaccResult result;
    {
      SNS_PROFILE_ZONE("worker.distill");
      result = worker_->Process(request);
    }
    completed_->Increment();
    RecordSpan(ChildSpan(span), "worker.service", service_start,
               result.status.ok() ? "ok" : "error");
    RecordSpan(span, "worker.task", enqueued_at, result.status.ok() ? "ok" : "error");
    auto reply = std::make_shared<TaskResponsePayload>();
    reply->task_id = task->task_id;
    reply->status = result.status;
    reply->output = result.output;
    reply->worker_type = type_;
    Message out;
    out.dst = task->reply_to;
    out.type = kMsgTaskResponse;
    out.transport = Transport::kReliable;
    out.size_bytes = WireSizeOf(*reply);
    out.payload = reply;
    out.trace = span;
    Send(std::move(out));
    StartNext();
  });
}

void WorkerProcess::ReportLoad() {
  if (!manager_.known()) {
    return;
  }
  queue_gauge_->Set(QueueLength());
  Send(manager_.Report(Load()));
}

}  // namespace sns

#include "src/workload/playback.h"

#include "src/obs/profiler.h"
#include "src/util/logging.h"

namespace sns {

PlaybackEngine::PlaybackEngine(const PlaybackConfig& config)
    : Process("playback"), config_(config), rng_(config.seed) {}

void PlaybackEngine::OnStop() { StopLoad(); }

void PlaybackEngine::StartConstantRate(double requests_per_second,
                                       std::function<TraceRecord()> next) {
  next_fn_ = std::move(next);
  rate_ = requests_per_second;
  if (rate_event_ == kInvalidEventId && rate_ > 0) {
    rate_event_ = After(Seconds(1.0 / rate_), [this] { ConstantRateTick(); });
  }
}

void PlaybackEngine::SetRate(double requests_per_second) { rate_ = requests_per_second; }

void PlaybackEngine::StopLoad() {
  if (rate_event_ != kInvalidEventId) {
    CancelTimer(rate_event_);
    rate_event_ = kInvalidEventId;
  }
  rate_ = 0;
  trace_.clear();
  trace_pos_ = 0;
}

void PlaybackEngine::ConstantRateTick() {
  SNS_PROFILE_ZONE("playback.tick");
  rate_event_ = kInvalidEventId;
  if (rate_ <= 0 || !next_fn_) {
    return;
  }
  SendRequest(next_fn_());
  rate_event_ = After(Seconds(1.0 / rate_), [this] { ConstantRateTick(); });
}

void PlaybackEngine::PlayTrace(std::vector<TraceRecord> records, SimDuration lead_in) {
  trace_ = std::move(records);
  trace_pos_ = 0;
  if (trace_.empty()) {
    return;
  }
  trace_offset_ = sim()->now() + lead_in - trace_.front().time;
  PlayNextFromTrace();
}

void PlaybackEngine::PlayNextFromTrace() {
  if (trace_pos_ >= trace_.size()) {
    trace_.clear();
    return;
  }
  const TraceRecord& record = trace_[trace_pos_];
  SimTime fire_at = record.time + trace_offset_;
  SimDuration delay = fire_at > sim()->now() ? fire_at - sim()->now() : 0;
  After(delay, [this] {
    if (trace_pos_ < trace_.size()) {
      SendRequest(trace_[trace_pos_]);
      ++trace_pos_;
      PlayNextFromTrace();
    }
  });
}

Endpoint PlaybackEngine::PickFrontEnd() {
  if (!config_.front_ends) {
    return Endpoint{};
  }
  config_.front_ends(&live_fes_);
  if (live_fes_.empty()) {
    return Endpoint{};
  }
  fe_rr_ = (fe_rr_ + 1) % live_fes_.size();
  return live_fes_[fe_rr_];
}

uint64_t PlaybackEngine::SendRequest(const TraceRecord& record,
                                     std::map<std::string, std::string> params) {
  ++sent_;
  if (config_.availability != nullptr) {
    config_.availability->RecordOffered(sim()->now());
  }
  Endpoint fe = PickFrontEnd();
  if (!fe.valid()) {
    ++send_failures_;  // No live front end at all right now.
    if (config_.availability != nullptr) {
      config_.availability->RecordUnanswered(sim()->now(), "send_failed");
    }
    return 0;
  }
  uint64_t id = next_request_id_++;
  auto payload = std::make_shared<ClientRequestPayload>();
  payload->client_request_id = id;
  payload->url = record.url;
  payload->user_id = record.user_id;
  payload->params = record.params;
  for (auto& [key, value] : params) {
    payload->params[key] = std::move(value);
  }
  if (config_.request_deadline > 0) {
    payload->deadline = sim()->now() + config_.request_deadline;
  }

  PendingRequest pending;
  pending.sent_at = sim()->now();
  pending.deadline = payload->deadline;
  pending.user_id = record.user_id;
  TraceContext trace = StartTrace();  // Root span: the whole client-observed request.
  pending.trace = trace;
  pending.timeout = After(config_.request_timeout, [this, id] {
    if (PendingRequest* timed_out = pending_.Find(id)) {
      SimTime sent_at = timed_out->sent_at;
      RecordSpan(timed_out->trace, "client.request", sent_at, "timeout");
      pending_.Erase(id);
      ++timeouts_;
      if (config_.availability != nullptr) {
        config_.availability->RecordUnanswered(sent_at, "timeout");
      }
    }
  });
  pending_.Set(id, std::move(pending));

  Message msg;
  msg.dst = fe;
  msg.type = kMsgClientRequest;
  msg.transport = Transport::kReliable;
  msg.size_bytes = WireSizeOf(*payload);
  msg.payload = payload;
  msg.trace = trace;
  San::SendOptions opts;
  opts.on_failed = [this, id](const Message&) {
    // The chosen front end is gone; client-side balancing will route the next
    // request elsewhere. This one is counted as a failure.
    if (PendingRequest* failed = pending_.Find(id)) {
      SimTime sent_at = failed->sent_at;
      RecordSpan(failed->trace, "client.request", sent_at, "send_failed");
      CancelTimer(failed->timeout);
      pending_.Erase(id);
      ++send_failures_;
      if (config_.availability != nullptr) {
        config_.availability->RecordUnanswered(sent_at, "send_failed");
      }
    }
  };
  Send(std::move(msg), std::move(opts));
  return trace.trace_id;
}

void PlaybackEngine::OnMessage(const Message& msg) {
  SNS_PROFILE_ZONE("playback.response");
  if (msg.type != kMsgClientResponse) {
    return;
  }
  const auto& reply = static_cast<const ClientResponsePayload&>(*msg.payload);
  PendingRequest* pending = pending_.Find(reply.client_request_id);
  if (pending == nullptr) {
    return;  // Already timed out.
  }
  SimTime sent_at = pending->sent_at;
  double latency = ToSeconds(sim()->now() - sent_at);
  SimTime deadline = pending->deadline;
  std::string user_id = std::move(pending->user_id);
  RecordSpan(pending->trace, "client.request", sent_at, reply.status.ok() ? "ok" : "error");
  CancelTimer(pending->timeout);
  pending_.Erase(reply.client_request_id);
  if (config_.on_response) {
    config_.on_response(user_id, reply.status.ok());
  }

  ++completed_;
  bool late = deadline != kTimeNever && sim()->now() > deadline;
  if (reply.status.ok() && late) {
    ++late_completions_;
  }
  if (config_.availability != nullptr) {
    // Ledger semantics: an answer counts toward yield only if it was an OK
    // response delivered inside the client's deadline. A late OK answered
    // nobody — by then the user has navigated away (§4.5's whole premise).
    if (reply.status.ok() && !late) {
      config_.availability->RecordAnswered(sent_at, ResponseHarvest(reply.source));
    } else {
      config_.availability->RecordUnanswered(sent_at, reply.status.ok() ? "late" : "error");
    }
  }
  latency_s_.Add(latency);
  latency_hist_.Add(latency);
  ++by_source_[ResponseSourceName(reply.source)];
  // Completions arrive in time order: the hint makes the common case O(1).
  ++completions_sec_.try_emplace(completions_sec_.end(), sim()->now() / kSecond)->second;
  if (!reply.status.ok()) {
    ++errors_;
  }
  if (reply.content != nullptr) {
    bytes_received_ += reply.content->size();
  }
}

double PlaybackEngine::RecentThroughput(SimDuration window) const {
  if (window <= 0) {
    return 0;
  }
  int64_t now_sec = sim()->now() / kSecond;
  int64_t from_sec = now_sec - window / kSecond;
  int64_t count = 0;
  for (auto it = completions_sec_.lower_bound(from_sec); it != completions_sec_.end(); ++it) {
    count += it->second;
  }
  return static_cast<double>(count) / ToSeconds(window);
}

void PlaybackEngine::ResetStats() {
  sent_ = 0;
  completed_ = 0;
  errors_ = 0;
  timeouts_ = 0;
  send_failures_ = 0;
  late_completions_ = 0;
  bytes_received_ = 0;
  latency_s_ = RunningStats();
  latency_hist_ = Histogram(0.0, 30.0, 3000);
  by_source_.clear();
  completions_sec_.clear();
}

}  // namespace sns

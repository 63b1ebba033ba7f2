#include "src/sns/cache_node.h"

#include <algorithm>

#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// CPU charged per put (cf. CacheNodeConfig::cpu_per_get).
constexpr SimDuration kCpuPerPut = Milliseconds(4);

}  // namespace

CacheNodeProcess::CacheNodeProcess(const SnsConfig& sns_config, const CacheNodeConfig& config)
    : Process("cache-node"),
      sns_config_(sns_config),
      config_(config),
      cache_(config.capacity_bytes,
             [](const ContentPtr& c) { return c == nullptr ? 0 : c->size(); }),
      ring_(kCacheRingVnodes),
      settled_ring_(kCacheRingVnodes),
      rebalance_bucket_(sns_config.cache_rebalance_bytes_per_s,
                        sns_config.cache_rebalance_burst_bytes) {}

void CacheNodeProcess::OnStart() {
  std::string prefix = StrFormat("cache.n%d.", node());
  gets_ = metrics()->GetCounter(prefix + "gets");
  puts_ = metrics()->GetCounter(prefix + "puts");
  expired_gets_ = metrics()->GetCounter(prefix + "expired_gets");
  rebalance_passes_ = metrics()->GetCounter(prefix + "rebalance_passes");
  rebalance_pushed_ = metrics()->GetCounter(prefix + "rebalance_keys_pushed");
  rebalance_bytes_ = metrics()->GetCounter(prefix + "rebalance_bytes");
  rebalance_dropped_ = metrics()->GetCounter(prefix + "rebalance_keys_dropped");
  rebalance_puts_in_ = metrics()->GetCounter(prefix + "rebalance_puts_in");
  hits_gauge_ = metrics()->GetGauge(prefix + "hits");
  misses_gauge_ = metrics()->GetGauge(prefix + "misses");
  used_bytes_gauge_ = metrics()->GetGauge(prefix + "used_bytes");
  rebalance_active_gauge_ = metrics()->GetGauge(prefix + "rebalance_active");
  JoinGroup(kGroupManagerBeacon);
  report_timer_ =
      std::make_unique<PeriodicTimer>(sim(), kLoadReportPeriod, [this] { ReportLoad(); });
  report_timer_->Start();
}

void CacheNodeProcess::OnStop() {
  report_timer_.reset();
  if (rebalance_timer_ != kInvalidEventId) {
    CancelTimer(rebalance_timer_);
    rebalance_timer_ = kInvalidEventId;
  }
  LeaveGroup(kGroupManagerBeacon);
}

void CacheNodeProcess::OnMessage(const Message& msg) {
  switch (msg.type) {
    case kMsgManagerBeacon:
      HandleBeacon(static_cast<const ManagerBeaconPayload&>(*msg.payload));
      break;
    case kMsgCacheGet:
      HandleGet(msg);
      break;
    case kMsgCachePut:
      HandlePut(msg);
      break;
    default:
      break;
  }
}

void CacheNodeProcess::HandleBeacon(const ManagerBeaconPayload& beacon) {
  ManagerLink::Sighting sighting = manager_.Follow(beacon);
  if (sighting == ManagerLink::Sighting::kStale) {
    return;
  }
  if (sighting == ManagerLink::Sighting::kNew) {
    Send(manager_.Registration(Load()));
  }
  if (SyncCacheRing(beacon.cache_nodes, &ring_members_, &ring_) > 0) {
    StartRebalance();
  }
}

void CacheNodeProcess::StartRebalance() {
  if (rebalance_timer_ != kInvalidEventId) {
    CancelTimer(rebalance_timer_);
    rebalance_timer_ = kInvalidEventId;
  }
  // A membership pass supersedes any echo pass in flight; pending echo keys are
  // kept and re-armed by FinishRebalance once this pass completes.
  echo_pass_ = false;
  if (cache_.size() == 0) {
    // Nothing resident: adopt the new membership as settled with no pass (also
    // the common case at startup, before any content arrives).
    settled_ring_ = ring_;
    if (rebalance_active_) {
      FinishRebalance();
    }
    return;
  }
  rebalance_queue_.clear();
  rebalance_queue_.reserve(cache_.size());
  cache_.ForEach([this](const std::string& key, const ContentPtr&, int64_t) {
    rebalance_queue_.push_back(key);
  });
  rebalance_pos_ = 0;
  pass_pushed_ = 0;
  pass_bytes_ = 0;
  pass_dropped_ = 0;
  rebalance_passes_->Increment();
  if (!rebalance_active_) {
    rebalance_active_ = true;
    rebalance_active_gauge_->Set(1.0);
    if (config_.event_log != nullptr) {
      config_.event_log->RecordFault(
          {sim()->now(), StrFormat("cache n%d rebalance start (%d keys, %d members)", node(),
                                   static_cast<int>(rebalance_queue_.size()),
                                   static_cast<int>(ring_members_.size()))});
    }
  }
  rebalance_timer_ = After(Milliseconds(1), [this] { RebalanceStep(); });
}

void CacheNodeProcess::RebalanceStep() {
  SNS_PROFILE_ZONE("cache.rebalance");
  rebalance_timer_ = kInvalidEventId;
  size_t r = CacheReplicaCount(sns_config_);
  int64_t self = CacheRingMemberId(endpoint());
  int processed = 0;
  while (rebalance_pos_ < rebalance_queue_.size() &&
         processed < kCacheRebalanceBatchKeys) {
    const std::string& key = rebalance_queue_[rebalance_pos_];
    const ContentPtr* slot = cache_.Peek(key);
    if (slot == nullptr || *slot == nullptr) {
      ++rebalance_pos_;  // Evicted since the snapshot.
      continue;
    }
    ConsistentHashRing::Chain chain = ring_.LookupN(key, r);
    bool owned = false;
    // Membership pass: push only to chain members the settled (pre-change) ring
    // did not assign this key — steady-state writes already replicated to the
    // old chain, so only the delta needs migrating (~1/N of the ring per
    // single-node change). Echo pass: push the whole chain (the entry was just
    // learned from a peer, so its other replicas may not have it yet).
    std::vector<Endpoint> targets;
    for (int64_t m : chain) {
      if (m == self) {
        owned = true;
      } else if (echo_pass_ || !InChain(settled_ring_, key, r, m)) {
        targets.push_back(CacheRingMemberEndpoint(m));
      }
    }
    if (!targets.empty()) {
      int64_t size = (*slot)->size();
      double charge = static_cast<double>(size) * static_cast<double>(targets.size());
      // An object bigger than the whole burst could never satisfy the bucket;
      // clamp the request — the wait below still paces it at the refill rate.
      charge = std::min(charge, sns_config_.cache_rebalance_burst_bytes);
      if (!rebalance_bucket_.TryTake(sim()->now(), charge)) {
        SimTime at = rebalance_bucket_.NextAvailable(sim()->now(), charge);
        SimDuration wait = std::max<SimDuration>(at - sim()->now(), Milliseconds(1));
        rebalance_timer_ = After(wait, [this] { RebalanceStep(); });
        return;
      }
      for (const Endpoint& peer : targets) {
        PushEntry(key, *slot, peer);
      }
      int64_t pushed = static_cast<int64_t>(targets.size());
      rebalance_pushed_->Increment(pushed);
      rebalance_bytes_->Increment(size * pushed);
      pass_pushed_ += pushed;
      pass_bytes_ += size * pushed;
    }
    if (!owned && !chain.empty()) {
      // The new chain no longer assigns this key here; surrender it after the
      // pushes above so the content survives somewhere.
      cache_.Erase(key);
      rebalance_dropped_->Increment();
      ++pass_dropped_;
    }
    ++rebalance_pos_;
    ++processed;
  }
  if (rebalance_pos_ < rebalance_queue_.size()) {
    rebalance_timer_ = After(Milliseconds(1), [this] { RebalanceStep(); });
  } else {
    if (!echo_pass_) {
      settled_ring_ = ring_;
    }
    FinishRebalance();
  }
}

bool CacheNodeProcess::InChain(const ConsistentHashRing& ring, const std::string& key,
                               size_t r, int64_t member) {
  ConsistentHashRing::Chain chain = ring.LookupN(key, r);
  return std::find(chain.begin(), chain.end(), member) != chain.end();
}

void CacheNodeProcess::FinishRebalance() {
  rebalance_active_ = false;
  echo_pass_ = false;
  rebalance_active_gauge_->Set(0.0);
  rebalance_queue_.clear();
  rebalance_pos_ = 0;
  RefreshGauges();
  if (config_.event_log != nullptr) {
    config_.event_log->RecordFault(
        {sim()->now(),
         StrFormat("cache n%d rebalance end (pushed %lld keys, %lld bytes, dropped %lld)",
                   node(), static_cast<long long>(pass_pushed_),
                   static_cast<long long>(pass_bytes_),
                   static_cast<long long>(pass_dropped_))});
  }
  if (!echo_keys_.empty()) {
    ScheduleEchoPass();
  }
}

void CacheNodeProcess::ScheduleEchoPass() {
  if (rebalance_active_ || rebalance_timer_ != kInvalidEventId) {
    return;  // A pass is running or one is already scheduled; it will re-check.
  }
  // Short settle so a burst of migrated entries echoes as one pass.
  rebalance_timer_ = After(Seconds(1), [this] { StartEchoPass(); });
}

void CacheNodeProcess::StartEchoPass() {
  rebalance_timer_ = kInvalidEventId;
  if (echo_keys_.empty()) {
    return;
  }
  rebalance_queue_.assign(echo_keys_.begin(), echo_keys_.end());
  echo_keys_.clear();
  rebalance_pos_ = 0;
  pass_pushed_ = 0;
  pass_bytes_ = 0;
  pass_dropped_ = 0;
  echo_pass_ = true;
  rebalance_active_ = true;
  rebalance_active_gauge_->Set(1.0);
  rebalance_passes_->Increment();
  if (config_.event_log != nullptr) {
    config_.event_log->RecordFault(
        {sim()->now(), StrFormat("cache n%d anti-entropy echo (%d keys)", node(),
                                 static_cast<int>(rebalance_queue_.size()))});
  }
  RebalanceStep();
}

void CacheNodeProcess::PushEntry(const std::string& key, const ContentPtr& content,
                                 const Endpoint& peer) {
  auto payload = std::make_shared<CachePutPayload>();
  payload->key = key;
  payload->content = content;
  payload->rebalance = true;
  Message msg;
  msg.dst = peer;
  msg.type = kMsgCachePut;
  msg.transport = Transport::kReliable;
  msg.size_bytes = WireSizeOf(*payload);
  msg.payload = payload;
  // Harvest protocol: fresh connection per request, like every cache client.
  San::SendOptions opts;
  opts.force_new_connection = true;
  Send(std::move(msg), std::move(opts));
}

std::vector<std::string> CacheNodeProcess::CacheKeys() const {
  std::vector<std::string> keys;
  keys.reserve(cache_.size());
  cache_.ForEach([&keys](const std::string& key, const ContentPtr&, int64_t) {
    keys.push_back(key);
  });
  return keys;
}

void CacheNodeProcess::HandleGet(const Message& msg) {
  auto get = std::static_pointer_cast<const CacheGetPayload>(msg.payload);
  if (get->deadline != kTimeNever && sim()->now() >= get->deadline) {
    // The requester already counted this op as a miss at its deadline; answering
    // (or even parsing) an expired get would only add load while overloaded.
    expired_gets_->Increment();
    RecordSpan(ChildSpan(msg.trace), "cache.get", sim()->now(), "expired");
    return;
  }
  gets_->Increment();
  ++outstanding_;
  TraceContext span = ChildSpan(msg.trace);
  SimTime start = sim()->now();
  RunOnCpu(config_.cpu_per_get, [this, get, span, start] {
    SNS_PROFILE_ZONE("cache.get");
    --outstanding_;
    auto reply = std::make_shared<CacheReplyPayload>();
    reply->op_id = get->op_id;
    auto value = cache_.Get(get->key);
    reply->hit = value.has_value();
    reply->content = value.has_value() ? *value : nullptr;
    RefreshGauges();
    RecordSpan(span, "cache.get", start, reply->hit ? "hit" : "miss");
    Message out;
    out.dst = get->reply_to;
    out.type = kMsgCacheReply;
    out.transport = Transport::kReliable;
    out.size_bytes = WireSizeOf(*reply);
    out.payload = reply;
    out.trace = span;
    // Harvest opens (and tears down) a TCP connection per request (§3.1.5); the
    // reply rides the same fresh connection, so no extra setup here.
    Send(std::move(out));
  });
}

void CacheNodeProcess::HandlePut(const Message& msg) {
  auto put = std::static_pointer_cast<const CachePutPayload>(msg.payload);
  puts_->Increment();
  if (put->rebalance) {
    rebalance_puts_in_->Increment();
  }
  // Puts occupy the node exactly like gets; leaving them out of `outstanding_`
  // made a put-heavy cache node look idle to the manager's load view.
  ++outstanding_;
  TraceContext span = ChildSpan(msg.trace);
  SimTime start = sim()->now();
  RunOnCpu(kCpuPerPut, [this, put, span, start] {
    SNS_PROFILE_ZONE("cache.put");
    --outstanding_;
    if (put->content != nullptr) {
      // Content equality (one ContentPtr, or equal bytes: two origin fetches of a
      // URL are distinct ContentPtrs) tells a fresh migrated entry from a re-push
      // of one we already hold — only the former is echoed, so anti-entropy ends.
      const ContentPtr* existing = cache_.Peek(put->key);
      bool already_known = existing != nullptr && (*existing == put->content ||
                                                   (*existing)->bytes == put->content->bytes);
      cache_.Put(put->key, put->content);
      if (put->rebalance && !already_known) {
        echo_keys_.insert(put->key);
        ScheduleEchoPass();
      }
    }
    RefreshGauges();
    RecordSpan(span, "cache.put", start, "ok");
  });
}

void CacheNodeProcess::RefreshGauges() {
  hits_gauge_->Set(static_cast<double>(cache_.hits()));
  misses_gauge_->Set(static_cast<double>(cache_.misses()));
  used_bytes_gauge_->Set(static_cast<double>(cache_.used_bytes()));
}

void CacheNodeProcess::ReportLoad() {
  if (!manager_.known()) {
    return;
  }
  RefreshGauges();
  Send(manager_.Report(Load()));
}

LoadReportPayload CacheNodeProcess::Load() const {
  LoadReportPayload load;
  load.kind = ComponentKind::kCacheNode;
  load.component = endpoint();
  load.queue_length = static_cast<double>(outstanding_);
  return load;
}

}  // namespace sns

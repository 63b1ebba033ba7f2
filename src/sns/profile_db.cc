#include "src/sns/profile_db.h"

#include "src/obs/profiler.h"
#include "src/util/logging.h"

namespace sns {
namespace {

constexpr SimDuration kReadLatency = Microseconds(400);  // Index lookup, page cached.
constexpr SimDuration kCommitLatency = Milliseconds(6);  // WAL append + fsync.

}  // namespace

ProfileDbProcess::ProfileDbProcess(const ProfileDbConfig& config, KvStore* store)
    : Process("profile-db"), config_(config), store_(store) {}

void ProfileDbProcess::OnStart() {
  writes_nonquorate_ = metrics()->GetCounter("profiledb.writes_nonquorate");
  writes_rejected_counter_ = metrics()->GetCounter("profiledb.writes_rejected");
  superseded_counter_ = metrics()->GetCounter("profiledb.superseded");
  JoinGroup(kGroupManagerBeacon);
  // ACID recovery: replay the WAL from "disk" before serving (§3.1.3 contrasts this
  // with the soft-state components, which need no such step).
  auto recovered = store_->Recover();
  if (recovered.ok()) {
    SNS_LOG(kInfo, "profile-db") << "generation " << config_.generation << " recovered "
                                 << *recovered << " WAL records";
  }
  // Take the store reservation: from here on, commits from older generations
  // bounce at the bus (the storage-side half of fencing).
  if (config_.reservation != nullptr) {
    config_.reservation->Claim(config_.generation);
  }
  heartbeat_timer_ =
      std::make_unique<PeriodicTimer>(sim(), Seconds(1), [this] { Heartbeat(); });
  heartbeat_timer_->StartWithDelay(Milliseconds(123.0));
}

void ProfileDbProcess::OnStop() {
  heartbeat_timer_.reset();
  LeaveGroup(kGroupManagerBeacon);
}

void ProfileDbProcess::Heartbeat() {
  if (!manager_.known() || superseded_) {
    return;
  }
  Send(manager_.Report(Load()));
}

LoadReportPayload ProfileDbProcess::Load() const {
  LoadReportPayload load;
  load.kind = ComponentKind::kProfileDb;
  load.component = endpoint();
  load.component_generation = config_.generation;
  return load;
}

void ProfileDbProcess::Supersede(const char* evidence) {
  if (superseded_) {
    return;
  }
  superseded_ = true;
  superseded_counter_->Increment();
  SNS_LOG(kWarning, "profile-db") << "generation " << config_.generation
                                  << " superseded via " << evidence << "; self-demoting";
  heartbeat_timer_.reset();
  CrashSelf();
}

void ProfileDbProcess::OnMessage(const Message& msg) {
  if (superseded_) {
    return;
  }
  switch (msg.type) {
    case kMsgManagerBeacon: {
      const auto& beacon = static_cast<const ManagerBeaconPayload&>(*msg.payload);
      ManagerLink::Sighting sighting = manager_.Follow(beacon);
      if (sighting == ManagerLink::Sighting::kStale) {
        break;
      }
      if (config_.generation > 0 && beacon.profile_db_generation > config_.generation) {
        Supersede("beacon generation");
      } else if (sighting == ManagerLink::Sighting::kNew) {
        Send(manager_.Registration(Load()));
      }
      break;
    }
    case kMsgProfileGet:
      HandleGet(msg);
      break;
    case kMsgProfilePut:
      HandlePut(msg);
      break;
    default:
      break;
  }
}

void ProfileDbProcess::HandleGet(const Message& msg) {
  auto get = std::static_pointer_cast<const ProfileGetPayload>(msg.payload);
  RunOnCpu(kReadLatency, [this, get] {
    SNS_PROFILE_ZONE("profile_db.get");
    ++reads_;
    auto reply = std::make_shared<ProfileReplyPayload>();
    reply->op_id = get->op_id;
    auto record = store_->Get(get->user_id);
    if (record.has_value()) {
      auto profile = UserProfile::Deserialize(get->user_id, *record);
      if (profile.ok()) {
        reply->found = true;
        reply->profile = *profile;
      }
    }
    Message out;
    out.dst = get->reply_to;
    out.type = kMsgProfileReply;
    out.transport = Transport::kReliable;
    out.size_bytes = 64 + reply->profile.WireSize();
    out.payload = reply;
    Send(std::move(out));
  });
}

void ProfileDbProcess::HandlePut(const Message& msg) {
  auto put = std::static_pointer_cast<const ProfilePutPayload>(msg.payload);
  RunOnCpu(kCommitLatency, [this, put] {
    SNS_PROFILE_ZONE("profile_db.put");
    // The write-ack contract (DESIGN.md §14): evaluate quorum and the store
    // reservation at the commit instant, not at arrival — the partition may
    // have happened while this write sat in the CPU queue.
    Status status = Status::Ok();
    bool quorate = true;
    if (config_.membership != nullptr) {
      quorate = config_.membership->Regroup(node(), sim()->now()).quorate;
    }
    if (config_.reservation != nullptr &&
        !config_.reservation->HeldBy(config_.generation)) {
      // A newer incarnation reserved the store: this write must not land, and
      // this incarnation must die rather than race its successor.
      status = UnavailableError("profile db superseded; write refused");
      ++writes_rejected_;
      writes_rejected_counter_->Increment();
      Supersede("store reservation");
    } else if (!quorate) {
      // Minority side: refusing here (rather than committing and hoping) is
      // what makes "no minority partition ever acknowledges a write" hold.
      status = UnavailableError("profile db not quorate; write refused");
      ++writes_rejected_;
      writes_rejected_counter_->Increment();
    } else {
      ++writes_;
      if (!quorate) {
        // A commit applied while the regroup view is non-quorate. The gate above
        // makes this unreachable; the counter is the detector behind the
        // campaign's no-minority-ack invariant, so a broken gate shows up there.
        writes_nonquorate_->Increment();
      }
      store_->Put(put->profile.user_id(), put->profile.Serialize());
    }
    if (put->reply_to.valid()) {
      auto ack = std::make_shared<ProfilePutAckPayload>();
      ack->op_id = put->op_id;
      ack->status = status;
      Message out;
      out.dst = put->reply_to;
      out.type = kMsgProfilePutAck;
      out.transport = Transport::kReliable;
      out.size_bytes = 64;
      out.payload = ack;
      Send(std::move(out));
    }
  });
}

}  // namespace sns

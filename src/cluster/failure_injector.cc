#include "src/cluster/failure_injector.h"

#include <utility>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

void FailureInjector::LogEvent(const std::string& what) {
  events_.push_back(StrFormat("t=%s %s", FormatTime(cluster_->sim()->now()).c_str(),
                              what.c_str()));
  if (event_sink_) {
    event_sink_(cluster_->sim()->now(), what);
  }
}

void FailureInjector::CrashProcessAt(SimTime when, ProcessId pid) {
  cluster_->sim()->ScheduleAt(when, [this, pid] {
    if (cluster_->Find(pid) != nullptr) {
      ++injected_;
      SNS_LOG(kInfo, "inject") << "crashing pid " << pid;
      LogEvent(StrFormat("crash pid %ld", pid));
      cluster_->Crash(pid);
    }
  });
}

void FailureInjector::CrashNodeAt(SimTime when, NodeId node) {
  cluster_->sim()->ScheduleAt(when, [this, node] {
    ++injected_;
    LogEvent(StrFormat("kill node %d", node));
    cluster_->CrashNode(node);
  });
}

void FailureInjector::RestartNodeAt(SimTime when, NodeId node) {
  cluster_->sim()->ScheduleAt(when, [this, node] {
    LogEvent(StrFormat("restart node %d", node));
    cluster_->RestartNode(node);
  });
}

int32_t FailureInjector::PartitionAt(SimTime when, const std::vector<NodeId>& minority,
                                     SimTime heal_at) {
  int32_t group = next_group_++;
  cluster_->sim()->ScheduleAt(when, [this, minority, group] {
    ++injected_;
    SNS_LOG(kInfo, "inject") << "partitioning " << minority.size()
                             << " node(s) away as group " << group;
    LogEvent(StrFormat("partition group %d (%zu nodes)", group, minority.size()));
    for (NodeId node : minority) {
      san_->SetPartition(node, group);
    }
  });
  if (heal_at != kTimeNever) {
    cluster_->sim()->ScheduleAt(heal_at, [this, group] {
      SNS_LOG(kInfo, "inject") << "healing partition group " << group;
      LogEvent(StrFormat("heal group %d", group));
      san_->HealPartition(group);
    });
  }
  return group;
}

void FailureInjector::BeaconLossAt(SimTime when, McastGroup group, SimDuration duration) {
  cluster_->sim()->ScheduleAt(when, [this, group, duration] {
    ++injected_;
    SNS_LOG(kInfo, "inject") << "dropping multicast group " << group << " for "
                             << FormatTime(duration);
    LogEvent(StrFormat("beacon loss on group %d for %s", group,
                       FormatTime(duration).c_str()));
    san_->DropMulticastUntil(group, cluster_->sim()->now() + duration);
  });
}

void FailureInjector::RandomProcessCrashes(Rng* rng, SimDuration mean_interval, SimTime until,
                                           std::function<ProcessId()> victim_picker) {
  ScheduleNextRandomCrash(rng, mean_interval, until, std::move(victim_picker));
}

void FailureInjector::ScheduleNextRandomCrash(Rng* rng, SimDuration mean_interval, SimTime until,
                                              std::function<ProcessId()> victim_picker) {
  auto delay = static_cast<SimDuration>(rng->Exponential(static_cast<double>(mean_interval)));
  SimTime when = cluster_->sim()->now() + delay;
  if (when > until) {
    return;
  }
  cluster_->sim()->ScheduleAt(
      when, [this, rng, mean_interval, until, picker = std::move(victim_picker)]() mutable {
        ProcessId victim = picker();
        if (victim != kInvalidProcess && cluster_->Find(victim) != nullptr) {
          ++injected_;
          SNS_LOG(kInfo, "inject") << "random crash of pid " << victim;
          LogEvent(StrFormat("random crash pid %ld", victim));
          cluster_->Crash(victim);
        }
        ScheduleNextRandomCrash(rng, mean_interval, until, std::move(picker));
      });
}

}  // namespace sns

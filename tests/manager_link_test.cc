// Characterization tests of the manager link every component runs (§3.1.2,
// §3.1.3): a component follows the highest-epoch manager it hears beaconing,
// registers once per new incarnation, ignores beacons from stale incarnations,
// and keeps sending its periodic load reports to the manager it follows.
//
// A probe process stands in for the manager: it multicasts beacons naming itself
// and records every message that arrives at its endpoint. Two probes on different
// nodes play two manager incarnations.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sns/cache_node.h"
#include "src/sns/front_end.h"
#include "src/sns/monitor.h"
#include "src/sns/profile_db.h"
#include "src/sns/worker_process.h"
#include "src/store/kvstore.h"
#include "src/util/logging.h"

namespace sns {
namespace {

struct Arrival {
  uint32_t type = 0;
  Transport transport = Transport::kDatagram;
  int64_t size_bytes = 0;
  uint64_t manager_epoch = 0;
};

class ManagerProbe : public Process {
 public:
  ManagerProbe() : Process("manager-probe") {}

  void OnMessage(const Message& msg) override {
    Arrival arrival{msg.type, msg.transport, msg.size_bytes, 0};
    if (msg.type == kMsgRegisterComponent || msg.type == kMsgLoadReport) {
      arrival.manager_epoch = static_cast<const LoadReportPayload&>(*msg.payload).manager_epoch;
    }
    arrivals_.push_back(arrival);
  }

  void Beacon(uint64_t epoch, uint64_t profile_db_generation = 0) {
    auto payload = std::make_shared<ManagerBeaconPayload>();
    payload->manager = endpoint();
    payload->epoch = epoch;
    payload->profile_db_generation = profile_db_generation;
    Message msg;
    msg.type = kMsgManagerBeacon;
    msg.size_bytes = WireSizeOf(*payload);
    msg.payload = payload;
    SendMulticast(kGroupManagerBeacon, std::move(msg));
  }

  std::vector<Arrival> Of(uint32_t type) const {
    std::vector<Arrival> out;
    for (const Arrival& arrival : arrivals_) {
      if (arrival.type == type) {
        out.push_back(arrival);
      }
    }
    return out;
  }

 private:
  std::vector<Arrival> arrivals_;
};

// Starts nothing: a front end's watchdog may ask it for a manager relaunch.
class InertLauncher : public ComponentLauncher {
 public:
  ProcessId LaunchWorker(const std::string&, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchManager(NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchFrontEnd(int, NodeId) override { return kInvalidProcess; }
  ProcessId RelaunchProfileDb(NodeId) override { return kInvalidProcess; }
};

class IdleLogic : public FrontEndLogic {
 public:
  void HandleRequest(RequestContext*) override {}
};

class EchoWorker : public TaccWorker {
 public:
  std::string type() const override { return "echo"; }
  TaccResult Process(const TaccRequest& request) override {
    return TaccResult::Ok(request.inputs.empty() ? nullptr : request.input());
  }
};

class ManagerLinkTest : public ::testing::Test {
 protected:
  ManagerLinkTest() : san_(&sim_, SanConfig{}), cluster_(&sim_, &san_) {
    Logger::Get().set_min_level(LogLevel::kNone);
    component_node_ = cluster_.AddNode();
    first_ = Spawn<ManagerProbe>(cluster_.AddNode());
    second_ = Spawn<ManagerProbe>(cluster_.AddNode());
  }

  template <typename P, typename... Args>
  P* Spawn(NodeId node, Args&&... args) {
    auto owner = std::make_unique<P>(std::forward<Args>(args)...);
    P* raw = owner.get();
    cluster_.Spawn(node, std::move(owner));
    return raw;
  }

  void Settle() { sim_.RunFor(Milliseconds(200)); }

  // The shared protocol: `registration_bytes` is the component's registration
  // size. Ends with the component following `second_` at epoch 6.
  void ExpectFollowsHighestEpoch(int64_t registration_bytes) {
    first_->Beacon(5);
    Settle();
    std::vector<Arrival> regs = first_->Of(kMsgRegisterComponent);
    ASSERT_EQ(regs.size(), 1u) << "first beacon registers exactly once";
    EXPECT_EQ(regs[0].transport, Transport::kReliable);
    EXPECT_EQ(regs[0].manager_epoch, 5u);
    EXPECT_EQ(regs[0].size_bytes, registration_bytes);

    first_->Beacon(5);
    Settle();
    EXPECT_EQ(first_->Of(kMsgRegisterComponent).size(), 1u) << "repeat beacon re-registered";

    size_t reports_before = first_->Of(kMsgLoadReport).size();
    second_->Beacon(4);
    sim_.RunFor(Milliseconds(1500));  // Longer than every component's report period.
    EXPECT_TRUE(second_->Of(kMsgRegisterComponent).empty()) << "stale beacon followed";
    EXPECT_TRUE(second_->Of(kMsgLoadReport).empty()) << "reports went to the stale manager";
    std::vector<Arrival> reports = first_->Of(kMsgLoadReport);
    ASSERT_GT(reports.size(), reports_before) << "no load report after the stale beacon";
    EXPECT_EQ(reports.back().transport, Transport::kDatagram);
    EXPECT_EQ(reports.back().manager_epoch, 5u);

    second_->Beacon(6);
    Settle();
    regs = second_->Of(kMsgRegisterComponent);
    ASSERT_EQ(regs.size(), 1u) << "newer incarnation not registered with";
    EXPECT_EQ(regs[0].transport, Transport::kReliable);
    EXPECT_EQ(regs[0].manager_epoch, 6u);
    EXPECT_EQ(regs[0].size_bytes, registration_bytes);
    EXPECT_EQ(first_->Of(kMsgRegisterComponent).size(), 1u);
  }

  KvStore store_;  // The profile DB's disk; outlives the cluster.
  Simulator sim_;
  San san_;
  Cluster cluster_;
  NodeId component_node_ = kInvalidNode;
  ManagerProbe* first_ = nullptr;
  ManagerProbe* second_ = nullptr;
  SnsConfig config_;
};

TEST_F(ManagerLinkTest, WorkerRegistersOncePerIncarnationAndIgnoresStaleBeacons) {
  Spawn<WorkerProcess>(component_node_, std::make_unique<EchoWorker>());
  ExpectFollowsHighestEpoch(96 + static_cast<int64_t>(std::string("echo").size()));
}

TEST_F(ManagerLinkTest, CacheNodeRegistersOncePerIncarnationAndIgnoresStaleBeacons) {
  Spawn<CacheNodeProcess>(component_node_, config_, CacheNodeConfig{});
  ExpectFollowsHighestEpoch(96);
}

TEST_F(ManagerLinkTest, ProfileDbRegistersOncePerIncarnationAndIgnoresStaleBeacons) {
  ProfileDbConfig db_config;
  db_config.generation = 3;
  Spawn<ProfileDbProcess>(component_node_, db_config, &store_);
  ExpectFollowsHighestEpoch(96);
}

TEST_F(ManagerLinkTest, FrontEndRegistersOncePerIncarnationAndIgnoresStaleBeacons) {
  InertLauncher launcher;
  FrontEndProcess* fe = Spawn<FrontEndProcess>(component_node_, config_, FrontEndOptions{},
                                               std::make_shared<IdleLogic>(), &launcher);
  ExpectFollowsHighestEpoch(96);
  EXPECT_EQ(fe->stub().manager(), second_->endpoint());
  EXPECT_EQ(fe->stub().fenced_beacons(), 1u);
}

TEST_F(ManagerLinkTest, SupersededProfileDbDoesNotRegister) {
  ProfileDbConfig db_config;
  db_config.generation = 3;
  Spawn<ProfileDbProcess>(component_node_, db_config, &store_);
  first_->Beacon(5, /*profile_db_generation=*/4);
  sim_.RunFor(Milliseconds(1500));
  EXPECT_TRUE(first_->Of(kMsgRegisterComponent).empty());
  EXPECT_TRUE(first_->Of(kMsgLoadReport).empty());
  EXPECT_EQ(cluster_.metrics()->GetCounter("profiledb.superseded")->value(), 1);
}

TEST_F(ManagerLinkTest, CurrentProfileDbGenerationStillRegisters) {
  ProfileDbConfig db_config;
  db_config.generation = 3;
  Spawn<ProfileDbProcess>(component_node_, db_config, &store_);
  first_->Beacon(5, /*profile_db_generation=*/3);
  Settle();
  EXPECT_EQ(first_->Of(kMsgRegisterComponent).size(), 1u);
}

TEST_F(ManagerLinkTest, MonitorAndStubCountExactlyTheStaleBeacons) {
  InertLauncher launcher;
  MonitorProcess* monitor = Spawn<MonitorProcess>(component_node_);
  FrontEndProcess* fe = Spawn<FrontEndProcess>(component_node_, config_, FrontEndOptions{},
                                               std::make_shared<IdleLogic>(), &launcher);
  // Epochs in arrival order; stale = lower than the highest seen before it.
  const std::vector<std::pair<ManagerProbe*, uint64_t>> beacons = {
      {first_, 5}, {first_, 5}, {second_, 4}, {second_, 4}, {second_, 6},
      {first_, 5}, {second_, 6}, {first_, 6}, {second_, 2}};
  for (const auto& [probe, epoch] : beacons) {
    probe->Beacon(epoch);
    sim_.RunFor(Milliseconds(50));
  }
  EXPECT_EQ(monitor->stale_beacons_fenced(), 4);
  EXPECT_EQ(monitor->beacons_observed(), 5);
  EXPECT_EQ(fe->stub().fenced_beacons(), 4u);
  EXPECT_EQ(fe->stub().beacons_seen(), 5u);
}

}  // namespace
}  // namespace sns

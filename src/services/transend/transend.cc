#include "src/services/transend/transend.h"

namespace sns {

TranSendOptions DefaultTranSendOptions() {
  TranSendOptions options;

  // --- SAN: switched 100 Mb/s Ethernet (§4). ---
  options.topology.san.default_link.bandwidth_bps = 100e6;
  options.topology.san.default_link.per_message_overhead = Microseconds(150);
  options.topology.san.default_link.max_datagram_queue_delay = Milliseconds(50);
  // Per-connection setup: part of the measured 27 ms Harvest hit time (§4.4), paid
  // on every cache request (fresh connection each time) but amortized elsewhere.
  options.topology.san.tcp_setup_cost = Milliseconds(7);

  // --- Front-end NIC: TCP/kernel processing dominates ("more than 70% of its time
  // in the kernel", §4.4); calibrated so one FE saturates near ~75 req/s. ---
  LinkConfig fe_link = options.topology.san.default_link;
  fe_link.per_message_overhead = Milliseconds(2.1);
  options.topology.fe_link = fe_link;

  // --- The Internet behind a 10 Mb/s segment (§4). ---
  LinkConfig origin_link = options.topology.san.default_link;
  origin_link.bandwidth_bps = 10e6;
  options.topology.origin_link = origin_link;
  options.topology.with_origin = true;

  // --- TranSend ran Harvest on four nodes with ~6 GB total cache (§4.4). ---
  options.topology.cache_nodes = 4;
  options.topology.cache.cpu_per_get = Milliseconds(10);
  options.topology.worker_pool_nodes = 10;
  options.topology.front_ends = 1;  // Production ran a single ~400-thread FE.

  options.sns.spawn_threshold_h = 10.0;

  options.universe.url_count = 20000;
  options.universe.real_image_max_bytes = 0;  // Opaque imagery for speed.

  return options;
}

TranSendOptions RedistillOptions(int64_t url_count) {
  TranSendOptions options = DefaultTranSendOptions();
  options.universe = FixedJpegUniverse(url_count);
  options.logic.cache_distilled = false;
  return options;
}

TranSendService::TranSendService(const TranSendOptions& options)
    : options_(options), universe_(options.universe), system_(options.sns, options.topology) {
  RegisterTranSendDistillers(system_.registry(), options_.jpeg_distill_per_kb);
  TranSendLogicConfig logic_config = options_.logic;
  system_.set_logic_factory([logic_config](int /*fe_index*/) {
    return std::make_shared<TranSendLogic>(logic_config);
  });
  OriginConfig origin_config = options_.origin;
  system_.set_origin_factory([this, origin_config]() {
    return std::make_unique<OriginServerProcess>(origin_config, &universe_);
  });
}

void TranSendService::Start() { system_.Start(); }

PlaybackEngine* TranSendService::AddPlaybackEngine(uint64_t seed) {
  PlaybackConfig config;
  config.seed = seed;
  return AddPlaybackEngine(std::move(config));
}

PlaybackEngine* TranSendService::AddPlaybackEngine(PlaybackConfig config) {
  NodeConfig client;
  client.workers_allowed = false;
  // A plain LinkConfig, not the calibrated SAN default: each client node gets its
  // own uncalibrated 100 Mb/s NIC.
  client.link = LinkConfig{};
  NodeId node = system_.cluster()->AddNode(client);
  config.front_ends = [this](std::vector<Endpoint>* out) { system_.LiveFrontEndEndpoints(out); };
  if (config.availability == nullptr) {
    config.availability = system_.availability();
  }
  auto engine = std::make_unique<PlaybackEngine>(config);
  PlaybackEngine* raw = engine.get();
  ProcessId pid = system_.cluster()->Spawn(node, std::move(engine));
  if (pid == kInvalidProcess) {
    return nullptr;
  }
  playback_pids_.push_back(pid);
  return raw;
}

}  // namespace sns

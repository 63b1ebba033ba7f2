// sns_bench: one run of one benchmark workload against the TranSend service.
//
//   sns_bench --workload zipf_steady|zipf_overload|stream_faults --seed N
//             [--trace 0|1] [--out DIR]
//
// A run builds and starts the cluster, generates the workload, warms up for
// 8 simulated seconds, offers the load in an open loop, drains, settles,
// checks the quiesce invariants and writes the schema-v2 BENCH artifact into
// DIR. It prints one JSON object on stdout: the output checks, the simulated
// metrics (identical for identical seeds), the layer counters, the host
// timings of every phase, and with --trace 1 the profiler's zone table.
// perfbench/run.py repeats runs, compares them and prints the benchmark's
// metrics. The program only calls the system's public entry points.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/chaos/invariants.h"
#include "src/chaos/schedule.h"
#include "src/cluster/failure_injector.h"
#include "src/obs/critical_path.h"
#include "src/obs/profiler.h"
#include "src/scenario/scenario.h"
#include "src/services/transend/transend.h"
#include "src/tacc/streaming.h"
#include "src/util/strings.h"

namespace sns {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The fixed phases of the scenario harness (src/scenario/scenario.cc).
constexpr SimDuration kWarmup = Seconds(8);
constexpr double kWarmupRate = 6.0;
constexpr SimDuration kRequestDeadline = Seconds(4);
constexpr SimDuration kRequestTimeout = Seconds(8);
constexpr SimDuration kQuiesceSettle = Seconds(30);
constexpr int64_t kZipfUrlCount = 40;

// The critical-path analyser's stages (src/obs/critical_path.h).
const char* const kStages[] = {
    "fe_accept_queue_wait", "fe_processing",     "cache_lookup",
    "cache_write",          "profile_lookup",    "origin_fetch",
    "worker_queue_wait",    "worker_service",    "san_transit",
    "retry_backoff_idle",   "manager_stub_lookup"};

// A named ScenarioCell; cell.measure is the open-loop load window.
struct Workload {
  std::string name;
  ScenarioCell cell;
};

// Fault events per simulated second of load: the 2-3 events per 40 s of the
// stream_w3fe2c2r3u_f6b_nom cell, kept constant as the window grows.
constexpr double kFaultsPerSecond = 2.5 / 40.0;

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  ScenarioCell& cell = w->cell;
  cell.seed = seed;
  if (name == "zipf_steady" || name == "zipf_overload") {
    // The cluster of zipf_w2fe1c2r2u_f0_nom: 2 worker nodes, 1 FE, 2 caches, R=2.
    cell.workload = WorkloadShape::kZipf;
    cell.cluster = ClusterShape{2, 1, 2, 2, VoteLayout::kUniform};
    cell.regime = name == "zipf_steady" ? OverloadRegime::kNominal
                                        : OverloadRegime::kSaturating;
    cell.measure = Seconds(1200);
  } else if (name == "stream_faults") {
    // The shape of stream_w3fe2c2r3u_f6b_nom: 10 sessions x 4 fps against
    // 3 worker nodes, 2 FEs, 2 caches at R=3, cache-crash-biased faults.
    cell.workload = WorkloadShape::kStream;
    cell.cluster = ClusterShape{3, 2, 2, 3, VoteLayout::kUniform};
    cell.stream.sessions = 10;
    cell.measure = Seconds(300);
    cell.fault_seed = 0x6B;
    ScheduleGenConfig& gen = cell.gen;
    gen.min_outage = Seconds(4);
    gen.max_outage = Seconds(10);
    gen.max_partition_nodes = 2;
    gen.kind_weights = {1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    // Spread over the whole window; every outage heals before the drain.
    gen.horizon = cell.measure - gen.max_outage - Seconds(2);
    gen.min_events = gen.max_events = std::max(
        1, static_cast<int>(std::lround(kFaultsPerSecond * ToSeconds(cell.measure))));
  } else {
    return false;
  }
  cell.stream.duration = cell.measure;
  cell.stream.seed ^= seed;
  return true;
}

// The TranSend configuration of the scenario cells (CellOptions, private to
// src/scenario/scenario.cc): an all-JPEG universe with distilled results
// uncached, so every request re-distills.
TranSendOptions MakeOptions(const ScenarioCell& cell) {
  TranSendOptions options = DefaultTranSendOptions();
  bool stream = cell.workload == WorkloadShape::kStream;
  options.universe.url_count =
      stream ? std::max<int64_t>(StreamUrlSpace(cell.stream), 1) : kZipfUrlCount;
  options.universe.sizes.gif_fraction = 0.0;
  options.universe.sizes.html_fraction = 0.0;
  options.universe.sizes.jpeg_fraction = 1.0;
  options.universe.sizes.jpeg_mu = 9.2335;
  options.universe.sizes.jpeg_sigma = 0.05;
  options.universe.sizes.error_page_fraction = 0.0;
  options.logic.cache_distilled = false;
  options.topology.worker_pool_nodes = cell.cluster.worker_pool_nodes;
  options.topology.front_ends = cell.cluster.front_ends;
  options.topology.cache_nodes = cell.cluster.cache_nodes;
  options.sns.cache_replication = cell.cluster.cache_replication;
  if (stream) {
    // Nearby capture points: a fresh frame costs tens of milliseconds to fetch.
    options.origin.latency_mu = std::log(0.08);
    options.origin.latency_sigma = 0.3;
    options.origin.min_latency = Milliseconds(20);
    options.origin.max_latency = Milliseconds(500);
  }
  return options;
}

// Per-request client latency, read off the SAN flight recorder. Every client
// request is a traced send from the client's node and every response a traced
// delivery to it, so the send time of a request is found by trace id. The
// playback engine calls on_response right after the SAN logs the response's
// delivery, so the newest log entry is that response.
class LatencyProbe {
 public:
  LatencyProbe(const EventLog* log, SimDuration deadline) : log_(log), deadline_(deadline) {}

  void set_client_node(NodeId node) { client_node_ = node; }

  void OnResponse(bool ok) {
    Scan();
    const std::deque<SanEvent>& events = log_->messages();
    if (events.empty()) {
      Fail("response with an empty event log");
      return;
    }
    const SanEvent& ev = events.back();
    if (ev.kind != SanEvent::Kind::kDeliver || ev.msg_type != kMsgClientResponse ||
        ev.dst_node != client_node_) {
      Fail("newest event is not the client response");
      return;
    }
    auto it = sent_at_.find(ev.trace_id);
    if (it == sent_at_.end()) {
      Fail("response to an unseen request");
      return;
    }
    SimDuration latency = ev.at - it->second;
    sent_at_.erase(it);
    if (ok && latency <= deadline_) {
      answered_s_.push_back(ToSeconds(latency));
    }
  }

  // Indexes every client-request send logged since the last call.
  void Scan() {
    const std::deque<SanEvent>& events = log_->messages();
    int64_t fresh = log_->messages_recorded() - seen_;
    seen_ = log_->messages_recorded();
    if (fresh > static_cast<int64_t>(events.size())) {
      Fail("event log overran between scans");
      fresh = static_cast<int64_t>(events.size());
    }
    for (auto it = events.end() - fresh; it != events.end(); ++it) {
      if (it->kind == SanEvent::Kind::kSend && it->msg_type == kMsgClientRequest &&
          it->src_node == client_node_) {
        sent_at_[it->trace_id] = it->at;
      }
    }
  }

  // Answered-within-deadline latencies, seconds, in completion order.
  const std::vector<double>& answered_s() const { return answered_s_; }
  const std::string& error() const { return error_; }

 private:
  void Fail(const char* what) {
    if (error_.empty()) error_ = what;
  }

  const EventLog* log_;
  SimDuration deadline_;
  NodeId client_node_ = kInvalidNode;
  int64_t seen_ = 0;
  std::unordered_map<uint64_t, SimTime> sent_at_;
  std::vector<double> answered_s_;
  std::string error_;
};

// Linear-interpolation quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// True for "<prefix><anything>.<suffix>", e.g. "fe.0.deadline_expired".
bool Matches(const std::string& name, const std::string& prefix, const std::string& suffix) {
  return name.size() > prefix.size() + suffix.size() && name.starts_with(prefix) &&
         name.ends_with("." + suffix);
}

int64_t SumCounters(const MetricsRegistry& m, const std::string& prefix,
                    const std::string& suffix) {
  int64_t total = 0;
  m.ForEachCounter([&](const std::string& name, const Counter& c) {
    if (Matches(name, prefix, suffix)) total += c.value();
  });
  return total;
}

double SumGauges(const MetricsRegistry& m, const std::string& prefix,
                 const std::string& suffix) {
  double total = 0;
  m.ForEachGauge([&](const std::string& name, const Gauge& g) {
    if (Matches(name, prefix, suffix)) total += g.value();
  });
  return total;
}

// Ordered name -> value lists rendered as JSON objects with every digit kept.
using Values = std::vector<std::pair<std::string, double>>;

std::string ValuesJson(const Values& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StrFormat("%s\"%s\":%.17g", i ? "," : "", values[i].first.c_str(),
                     values[i].second);
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += StrFormat("%s\"%s\"", i ? "," : "", JsonEscape(items[i]).c_str());
  }
  return out + "]";
}

// Host-time phase spans of the benchmark's own calls into the system. With
// the profiler on, each phase is also a root-level profiler zone, so every
// zone the system records nests under one of them.
class Phases {
 public:
  explicit Phases(bool traced) : traced_(traced) {}

  template <typename Fn>
  void Run(const std::string& name, Fn&& fn) {
    int zone = traced_ ? Profiler::Get().RegisterZone(("bench." + name).c_str()) : -1;
    Clock::time_point start = Clock::now();
    if (zone >= 0) {
      ProfileZone scope(zone);
      fn();
    } else {
      fn();
    }
    spans_.emplace_back(name, SecondsSince(start));
  }

  double Get(const std::string& name) const {
    double total = 0;
    for (const auto& [n, s] : spans_) {
      if (n == name) total += s;
    }
    return total;
  }
  const Values& spans() const { return spans_; }

 private:
  bool traced_;
  Values spans_;
};

std::string ZonesJson() {
  std::string out = "[";
  bool first = true;
  for (const Profiler::ZoneStats& z : Profiler::Get().Snapshot()) {
    out += StrFormat(
        "%s{\"name\":\"%s\",\"stride_log2\":%d,\"count\":%lld,\"timed\":%lld,"
        "\"total_ns\":%lld,\"self_ns\":%lld,\"root_ns\":%lld}",
        first ? "" : ",", JsonEscape(z.name).c_str(), z.stride_log2,
        static_cast<long long>(z.count), static_cast<long long>(z.timed),
        static_cast<long long>(z.total_ns), static_cast<long long>(z.self_ns),
        static_cast<long long>(z.root_ns));
    first = false;
  }
  return out + "]";
}

int Run(const Workload& w, bool traced, const std::string& out_dir) {
  Clock::time_point run_start = Clock::now();
  if (traced) {
    Profiler::Get().Enable();
    Profiler::Get().BeginMeasurement();
  }
  const ScenarioCell& cell = w.cell;
  bool stream = cell.workload == WorkloadShape::kStream;
  SimDuration deadline = stream ? cell.stream.frame_deadline : kRequestDeadline;
  Phases phases(traced);
  std::vector<std::string> errors;

  // --- Setup: build and start the cluster, generate the workload, warm up. ---
  std::unique_ptr<TranSendService> service;
  phases.Run("setup.build", [&] {
    service = std::make_unique<TranSendService>(MakeOptions(cell));
    service->Start();
  });
  Simulator* sim = service->sim();
  SnsSystem* system = service->system();
  ContentUniverse* universe = service->universe();

  std::vector<TraceRecord> records;
  phases.Run("setup.workload_gen", [&] {
    if (stream) {
      for (const StreamFrame& frame : GenerateStreamFrames(cell.stream, universe->url_count())) {
        TraceRecord record;
        record.time = frame.at;
        record.user_id = StreamUserId(frame.session);
        record.url = universe->UrlAt(frame.url_index);
        records.push_back(std::move(record));
      }
    } else {
      // The scenario's Zipf draws, made ahead of time: one record per tick of
      // the constant-rate clock over the load window, plus slack.
      Rng rng(cell.seed ^ 0x10ADULL);
      size_t n =
          static_cast<size_t>(CellOfferedRate(cell) * ToSeconds(cell.measure + Seconds(1))) + 8;
      records.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        TraceRecord record;
        record.user_id = StrFormat("u%lld", static_cast<long long>(rng.Zipf(64, 0.8)));
        record.url = universe->UrlAt(rng.Zipf(universe->url_count(), 0.9));
        records.push_back(std::move(record));
      }
    }
  });

  LatencyProbe probe(system->event_log(), deadline);
  PlaybackEngine* client = nullptr;
  PlaybackEngine* warm_client = nullptr;
  phases.Run("setup.warmup", [&] {
    PlaybackConfig client_config;
    client_config.seed = cell.seed ^ 0xC311ULL;
    client_config.request_deadline = deadline;
    client_config.request_timeout = kRequestTimeout;
    client_config.on_response = [&probe](const std::string&, bool ok) { probe.OnResponse(ok); };
    client = service->AddPlaybackEngine(client_config);
    probe.set_client_node(client->node());

    PlaybackConfig warm_config;
    warm_config.seed = cell.seed ^ 0x3A43ULL;
    warm_config.request_deadline = kRequestDeadline;
    warm_config.request_timeout = kRequestTimeout;
    warm_client = service->AddPlaybackEngine(warm_config);
    Rng warm_rng(cell.seed ^ 0x3A43BEEFULL);
    warm_client->StartConstantRate(kWarmupRate, [&warm_rng, universe] {
      TraceRecord record;
      record.user_id = "warmup";
      record.url = universe->UrlAt(warm_rng.UniformInt(0, universe->url_count() - 1));
      return record;
    });
    sim->RunFor(kWarmup);
    warm_client->StopLoad();
  });

  // --- Load: open loop over the window; faults spread across it. -------------
  size_t next_record = 0;
  SimTime load_start = sim->now();
  if (stream) {
    client->PlayTrace(std::move(records), Seconds(1));
    load_start += Seconds(1);
  } else {
    client->StartConstantRate(CellOfferedRate(cell), [&records, &next_record] {
      return records[std::min(next_record++, records.size() - 1)];
    });
  }
  FailureInjector injector(system->cluster(), system->san());
  system->AttachFailureInjector(&injector);
  FaultSchedule schedule;
  if (cell.fault_seed != 0) {
    schedule = GenerateSchedule(cell.fault_seed, cell.gen);
    for (const FaultEvent& ev : schedule.events) {
      sim->ScheduleAt(load_start + ev.at, [&ev, system, &injector] {
        ApplyScheduledFault(ev, system, &injector);
      });
    }
  }
  phases.Run("load", [&] {
    // One simulated second at a time, so the latency probe indexes sends
    // long before the flight recorder's ring can drop them.
    SimTime end = sim->now() + cell.measure + Seconds(1);
    while (sim->now() < end) {
      sim->RunUntil(std::min(end, sim->now() + Seconds(1)));
      probe.Scan();
    }
    if (!stream) client->StopLoad();
  });
  if (!stream && next_record >= records.size()) {
    errors.push_back("zipf generator ran past its pre-generated records");
  }
  phases.Run("drain", [&] { sim->RunFor(kRequestTimeout + Seconds(2)); });
  for (PlaybackEngine* c : {client, warm_client}) {
    if (c->outstanding() != 0 ||
        c->sent() != c->completed() + c->timeouts() + c->send_failures()) {
      errors.push_back(StrFormat(
          "client identity: sent=%lld completed=%lld timeouts=%lld send_failures=%lld "
          "outstanding=%lld",
          static_cast<long long>(c->sent()), static_cast<long long>(c->completed()),
          static_cast<long long>(c->timeouts()), static_cast<long long>(c->send_failures()),
          static_cast<long long>(c->outstanding())));
    }
  }
  phases.Run("settle", [&] { sim->RunFor(kQuiesceSettle); });
  InvariantReport invariants;
  phases.Run("invariants", [&] {
    invariants = CheckInvariantsAtQuiesce(system, {client, warm_client});
  });
  for (const InvariantViolation& v : invariants.violations) {
    errors.push_back("invariant " + v.invariant + ": " + v.detail);
  }
  if (!probe.error().empty()) {
    errors.push_back("latency probe: " + probe.error());
  }

  // --- Simulated metrics. -----------------------------------------------------
  int64_t offered = client->sent();
  int64_t answered = static_cast<int64_t>(probe.answered_s().size());
  if (answered != client->completed() - client->errors() - client->late_completions()) {
    errors.push_back("latency probe disagrees with the client's answered count");
  }
  std::vector<double> latencies = probe.answered_s();
  latencies.resize(static_cast<size_t>(std::max(offered, answered)), ToSeconds(kRequestTimeout));
  std::sort(latencies.begin(), latencies.end());
  const MetricsRegistry& m = *system->metrics();
  int64_t max_outage_s = LongestZeroCompletionGap(
      client->completions_per_second(), load_start / kSecond + 1,
      (load_start + cell.measure) / kSecond);

  Values sim_values = {
      {"yield", system->availability()->RunYield()},
      {"harvest", system->availability()->RunHarvest()},
      {"latency_p50_s", Quantile(latencies, 0.50)},
      {"latency_p99_s", Quantile(latencies, 0.99)},
      {"latency_samples", static_cast<double>(latencies.size())},
      {"max_outage_s", static_cast<double>(max_outage_s)},
      {"offered", static_cast<double>(offered)},
      {"failed_requests", static_cast<double>(offered - answered)},
      {"sim.events", static_cast<double>(sim->executed_events())},
      {"san.messages_delivered", static_cast<double>(m.CounterValue("san.messages_delivered"))},
      {"san.datagrams_dropped", static_cast<double>(m.CounterValue("san.datagrams_dropped"))},
  };
  for (const char* name : {"deadline_expired", "cache_failover_reads", "task_retries",
                           "task_timeouts", "retries_backoff", "requests_shed"}) {
    sim_values.emplace_back(std::string("fe.") + name,
                            static_cast<double>(SumCounters(m, "fe.", name)));
  }
  for (const char* name : {"gets", "puts", "expired_gets", "rebalance_bytes"}) {
    sim_values.emplace_back(std::string("cache.") + name,
                            static_cast<double>(SumCounters(m, "cache.", name)));
  }
  double hits = SumGauges(m, "cache.", "hits");
  double misses = SumGauges(m, "cache.", "misses");
  sim_values.emplace_back("cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  for (const char* name : {"completed_tasks", "expired_tasks", "rejected_tasks"}) {
    sim_values.emplace_back(std::string("worker.") + name,
                            static_cast<double>(SumCounters(m, "worker.", name)));
  }
  for (const char* name : {"manager.spawns_initiated", "manager.fe_restarts",
                           "manager.quorum_losses", "fencing.kills"}) {
    sim_values.emplace_back(name, static_cast<double>(m.CounterValue(name)));
  }
  sim_values.emplace_back("chaos.faults_injected", static_cast<double>(injector.injected_count()));
  sim_values.emplace_back("content.generated_count",
                          static_cast<double>(universe->generated_count()));
  sim_values.emplace_back("content.generated_mb",
                          static_cast<double>(universe->generated_bytes()) / 1e6);
  sim_values.emplace_back("obs.retained_traces",
                          static_cast<double>(system->tracer()->trace_count()));

  // --- Artifact: each section exported and timed on its own, then written and
  // freed, so the sections are never all held at once. -------------------------
  std::string artifact = out_dir + "/BENCH_perfbench_" + w.name + ".json";
  std::FILE* f = std::fopen(artifact.c_str(), "w");
  if (f == nullptr) {
    errors.push_back("could not open " + artifact);
  } else {
    std::fprintf(f, "{\"meta\":{\"schema_version\":2,\"bench\":\"perfbench_%s\",\"time_ns\":%lld}",
                 w.name.c_str(), static_cast<long long>(sim->now()));
  }
  std::map<std::string, size_t> section_bytes;
  auto write_section = [&](const char* key, const std::string& json) {
    section_bytes[key] = json.size();
    if (f != nullptr) std::fprintf(f, ",\"%s\":%s", key, json.c_str());
  };
  auto export_section = [&](const char* key, auto&& to_json) {
    std::string json;
    phases.Run(std::string("export.") + key, [&] { json = to_json(); });
    phases.Run("export.write", [&] { write_section(key, json); });
  };
  CriticalPathSummary paths;
  export_section("snapshot", [&] {
    MonitorProcess* monitor = system->monitor();
    return monitor != nullptr ? monitor->ExportJson() : m.RenderJson();
  });
  export_section("timeseries", [&] {
    return system->recorder() != nullptr ? system->recorder()->ToJson() : std::string("{}");
  });
  export_section("critical_path", [&] {
    paths = CriticalPathSummary::FromCollector(*system->tracer());
    return paths.ToJson();
  });
  export_section("availability",
                 [&] { return system->availability()->ToJson(system->event_log()); });
  export_section("traces", [&] { return system->tracer()->ToJson(); });
  if (traced) Profiler::Get().EndMeasurement();
  write_section("profile", Profiler::Get().ToJson());
  int64_t artifact_bytes = -1;
  if (f != nullptr) {
    std::fputs("}\n", f);
    artifact_bytes = std::ftell(f);
    if (std::fclose(f) != 0) {
      artifact_bytes = -1;
      errors.push_back("could not write " + artifact);
    }
  }
  for (const char* stage : kStages) {
    const LogHistogram* h = paths.StageHistogram(stage);
    sim_values.emplace_back(StrFormat("cp.%s.p50_s", stage), h ? h->Percentile(0.50) : 0.0);
    sim_values.emplace_back(StrFormat("cp.%s.p99_s", stage), h ? h->Percentile(0.99) : 0.0);
  }
  double wall_s = SecondsSince(run_start);

  // --- Host metrics. -----------------------------------------------------------
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double setup_s = phases.Get("setup.build") + phases.Get("setup.workload_gen") +
                   phases.Get("setup.warmup");
  double load_drain_s = phases.Get("load") + phases.Get("drain");
  Values host = {
      {"wall_s", wall_s},
      {"setup_s", setup_s},
      {"sim_req_per_wall_s", static_cast<double>(offered) / load_drain_s},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6},
      {"artifact_mb", static_cast<double>(artifact_bytes) / 1e6},
      {"sim.events_per_s", static_cast<double>(sim->executed_events()) /
                               (phases.Get("setup.warmup") + load_drain_s + phases.Get("settle"))},
      {"workload.gen_s", phases.Get("setup.workload_gen")},
      {"chaos.invariants_s", phases.Get("invariants")},
  };
  for (const char* section : {"snapshot", "timeseries", "critical_path", "availability",
                              "traces"}) {
    host.emplace_back(StrFormat("export.%s_s", section),
                      phases.Get(std::string("export.") + section));
    sim_values.emplace_back(StrFormat("export.%s_bytes", section),
                            static_cast<double>(section_bytes[section]));
  }
  for (const auto& [name, seconds] : phases.spans()) {
    host.emplace_back("phase." + name + "_s", seconds);
  }
  if (traced) {
    host.emplace_back("profiler.coverage", Profiler::Get().Coverage());
    host.emplace_back("profiler.measured_wall_s",
                      static_cast<double>(Profiler::Get().measured_wall_ns()) / 1e9);
  }

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"artifact\":\"%s\",\"errors\":%s,\"sim\":%s,\"host\":%s,"
      "\"zones\":%s}\n",
      w.name.c_str(), static_cast<unsigned long long>(cell.seed), traced ? "true" : "false",
      JsonEscape(SNS_BENCH_COMPILER).c_str(), SNS_BENCH_BUILD_TYPE,
      JsonEscape(artifact).c_str(), StringsJson(errors).c_str(),
      ValuesJson(sim_values).c_str(), ValuesJson(host).c_str(),
      traced ? ZonesJson().c_str() : "[]");
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--trace") {
      traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  sns::Workload w;
  if (!sns::MakeWorkload(workload, seed, &w)) {
    std::fprintf(stderr,
                 "usage: %s --workload zipf_steady|zipf_overload|stream_faults --seed N "
                 "[--trace 0|1] [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  return sns::Run(w, traced, out_dir);
}

#include "src/scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/chaos/campaign.h"
#include "src/cluster/failure_injector.h"
#include "src/obs/metrics.h"
#include "src/services/transend/transend.h"
#include "src/util/strings.h"
#include "src/workload/trace.h"

namespace sns {

const char* WorkloadShapeName(WorkloadShape shape) {
  switch (shape) {
    case WorkloadShape::kReplay: return "replay";
    case WorkloadShape::kZipf: return "zipf";
    case WorkloadShape::kFlashCrowd: return "flash";
    case WorkloadShape::kDiurnal: return "diurnal";
    case WorkloadShape::kStream: return "stream";
  }
  return "unknown";
}

const char* VoteLayoutName(VoteLayout layout) {
  return layout == VoteLayout::kCoreWeighted ? "core-weighted" : "uniform";
}

const char* OverloadRegimeName(OverloadRegime regime) {
  return regime == OverloadRegime::kSaturating ? "saturating" : "nominal";
}

std::string ScenarioCell::Name() const {
  std::string fault_tag =
      fault_seed == 0
          ? std::string("f0")
          : StrFormat("f%02llx", static_cast<unsigned long long>(fault_seed & 0xFF));
  return StrFormat("%s_w%dfe%dc%dr%d%s_%s_%s", WorkloadShapeName(workload),
                   cluster.worker_pool_nodes, cluster.front_ends, cluster.cache_nodes,
                   cluster.cache_replication,
                   cluster.votes == VoteLayout::kCoreWeighted ? "cw" : "u",
                   fault_tag.c_str(),
                   regime == OverloadRegime::kSaturating ? "sat" : "nom");
}

double CellCapacity(const ClusterShape& cluster) {
  // One distiller sustains ~23 req/s on ~10 KB JPEGs; one front end's network
  // path saturates near ~70 req/s (§4.6 calibration).
  return std::min(23.0 * cluster.worker_pool_nodes, 70.0 * cluster.front_ends);
}

double CellOfferedRate(const ScenarioCell& cell) {
  double capacity = CellCapacity(cell.cluster);
  switch (cell.workload) {
    case WorkloadShape::kStream:
      // Streams do not back off: the offered rate is fixed by the session count.
      return cell.stream.sessions * kStreamFramesPerSecond;
    case WorkloadShape::kFlashCrowd:
      // Base rate before the 10x step; the step itself lands at ~1.5x capacity,
      // which is what makes it a flash crowd rather than a ramp.
      return std::clamp(0.15 * capacity, 4.0, 12.0);
    default:
      break;
  }
  if (cell.regime == OverloadRegime::kSaturating) {
    return std::min(2.0 * capacity, 90.0);
  }
  return std::clamp(0.4 * capacity, 6.0, 24.0);
}

int64_t LongestZeroCompletionGap(const std::map<int64_t, int64_t>& completions_per_second,
                                 int64_t from_s, int64_t to_s) {
  int64_t longest = 0;
  int64_t gap = 0;
  for (int64_t s = from_s; s < to_s; ++s) {
    auto it = completions_per_second.find(s);
    if (it == completions_per_second.end() || it->second == 0) {
      ++gap;
      longest = std::max(longest, gap);
    } else {
      gap = 0;
    }
  }
  return longest;
}

namespace {

constexpr SimDuration kWarmup = Seconds(8);
constexpr double kWarmupRate = 6.0;
constexpr SimDuration kRequestDeadline = Seconds(4);
constexpr SimDuration kRequestTimeout = Seconds(8);
// Post-drain settle window: beacon periods, soft-state TTLs, and rebalance
// passes must all finish before the convergence invariants are decidable.
constexpr SimDuration kQuiesceSettle = Seconds(30);

// Number of URLs in the universe of request/response cells. Small enough that
// the cache tier warms quickly and the hit-rate metric measures fault damage,
// not cold-start misses.
constexpr int64_t kUrlCount = 40;

StreamSessionConfig CellStreamConfig(const ScenarioCell& cell) {
  StreamSessionConfig stream = cell.stream;
  stream.duration = cell.measure;
  stream.seed = cell.stream.seed ^ cell.seed;
  return stream;
}

TranSendOptions CellOptions(const ScenarioCell& cell) {
  // Every request re-distills, keeping the worker pool load-bearing (otherwise
  // the cache absorbs the workload and worker faults are invisible).
  TranSendOptions options = RedistillOptions(
      cell.workload == WorkloadShape::kStream
          ? std::max<int64_t>(StreamUrlSpace(CellStreamConfig(cell)), 1)
          : kUrlCount);
  options.topology.worker_pool_nodes = cell.cluster.worker_pool_nodes;
  options.topology.front_ends = cell.cluster.front_ends;
  options.topology.cache_nodes = cell.cluster.cache_nodes;
  options.sns.cache_replication = cell.cluster.cache_replication;
  if (cell.cluster.votes == VoteLayout::kCoreWeighted) {
    options.sns.infra_node_votes = 3;
  }
  if (cell.workload == WorkloadShape::kStream) {
    // Stream sources are nearby capture points, not the wide-area Internet:
    // fetching a fresh frame costs tens of milliseconds, so the per-frame
    // deadline is spent in the distiller chain, where the cell wants it.
    options.origin.latency_mu = std::log(0.08);
    options.origin.latency_sigma = 0.3;
    options.origin.min_latency = Milliseconds(20);
    options.origin.max_latency = Milliseconds(500);
  }
  return options;
}

std::string MetricsJson(const CellMetrics& m) {
  return StrFormat(
      "{\"latency_p50_s\":%.9g,\"latency_p99_s\":%.9g,"
      "\"hit_rate\":%.9g,\"recovery_s\":%.9g,\"yield\":%.9g,\"harvest\":%.9g,"
      "\"sent\":%lld,\"completed\":%lld,"
      "\"errors\":%lld,\"timeouts\":%lld,\"late_completions\":%lld}",
      m.latency_p50_s, m.latency_p99_s, m.hit_rate,
      m.recovery_s, m.yield, m.harvest, static_cast<long long>(m.sent),
      static_cast<long long>(m.completed), static_cast<long long>(m.errors),
      static_cast<long long>(m.timeouts),
      static_cast<long long>(m.late_completions));
}

}  // namespace

std::string BaselineJson(const CellResult& result) {
  return StrFormat("{\"schema_version\":2,\"cell\":\"%s\",\"metrics\":%s}\n",
                   JsonEscape(result.cell.Name()).c_str(),
                   MetricsJson(result.metrics).c_str());
}

std::string MatrixSectionJson(const CellResult& result) {
  const ScenarioCell& cell = result.cell;
  std::string cluster = StrFormat(
      "{\"worker_pool_nodes\":%d,\"front_ends\":%d,\"cache_nodes\":%d,"
      "\"cache_replication\":%d,\"votes\":\"%s\"}",
      cell.cluster.worker_pool_nodes, cell.cluster.front_ends,
      cell.cluster.cache_nodes, cell.cluster.cache_replication,
      VoteLayoutName(cell.cluster.votes));
  return StrFormat(
      "{\"cell\":\"%s\",\"workload\":\"%s\",\"regime\":\"%s\","
      "\"seed\":%llu,\"fault_seed\":%llu,\"cluster\":%s,"
      "\"invariants_ok\":%s,\"violations\":%zu,\"faults_injected\":%lld,"
      "\"metrics\":%s}",
      JsonEscape(cell.Name()).c_str(), WorkloadShapeName(cell.workload),
      OverloadRegimeName(cell.regime), static_cast<unsigned long long>(cell.seed),
      static_cast<unsigned long long>(cell.fault_seed), cluster.c_str(),
      result.invariants.ok() ? "true" : "false",
      result.invariants.violations.size(),
      static_cast<long long>(result.faults_injected),
      MetricsJson(result.metrics).c_str());
}

CellResult RunScenarioCell(const ScenarioCell& cell, const CellRunOptions& options) {
  CellResult result;
  result.cell = cell;
  if (cell.workload == WorkloadShape::kStream) {
    result.cell.stream = CellStreamConfig(cell);
  }

  TranSendService service(CellOptions(cell));
  service.Start();
  Simulator* sim = service.sim();
  SnsSystem* system = service.system();
  ContentUniverse* universe = service.universe();

  // The cache-tier gauge names are keyed by node id; capture the ids now so the
  // hit-rate metric survives cache-node deaths mid-run.
  std::vector<int> cache_node_ids;
  for (CacheNodeProcess* cache : system->cache_node_processes()) {
    cache_node_ids.push_back(cache->node());
  }

  SimDuration deadline = cell.workload == WorkloadShape::kStream
                             ? result.cell.stream.frame_deadline
                             : kRequestDeadline;
  PlaybackConfig client_config;
  client_config.seed = cell.seed ^ 0xC311ULL;
  client_config.request_deadline = deadline;
  client_config.request_timeout = kRequestTimeout;
  PlaybackEngine* client = service.AddPlaybackEngine(client_config);

  PlaybackConfig warm_config;
  warm_config.seed = cell.seed ^ 0x3A43ULL;
  warm_config.request_deadline = kRequestDeadline;
  warm_config.request_timeout = kRequestTimeout;
  PlaybackEngine* warm_client = service.AddPlaybackEngine(warm_config);

  // Warmup under light load: the manager spawns the initial workers and the
  // cache tier fills, so the measured window starts from a running cluster.
  // Stats are never reset — accounting from t=0 keeps the answered-or-expired
  // conservation invariant exact.
  warm_client->StartConstantRate(kWarmupRate,
                                 UniformUrls(universe, cell.seed ^ 0x3A43BEEFULL, "warmup"));
  sim->RunFor(kWarmup);
  warm_client->StopLoad();

  // --- The cell's workload shape, driven over [now, now + load_window]. -----------
  double rate = CellOfferedRate(cell);
  SimDuration load_window = cell.measure;
  if (cell.fault_seed != 0) {
    load_window = std::max(load_window,
                           cell.gen.horizon + cell.gen.max_outage + Seconds(2));
  }
  bool constant_rate_load = false;
  Rng load_rng(cell.seed ^ 0x10ADULL);
  switch (cell.workload) {
    case WorkloadShape::kZipf: {
      // Zipf-skewed URL popularity over a modest user population — the
      // HotBot-style shape where a few hot documents dominate.
      constant_rate_load = true;
      client->StartConstantRate(rate, [&load_rng, universe] {
        TraceRecord record;
        record.user_id = StrFormat(
            "u%lld", static_cast<long long>(load_rng.Zipf(64, 0.8)));
        record.url = universe->UrlAt(load_rng.Zipf(universe->url_count(), 0.9));
        return record;
      });
      break;
    }
    case WorkloadShape::kFlashCrowd: {
      // 10x step arrivals: quiet base load, then the crowd arrives for a
      // quarter of the window, then leaves. The step peak sits near 1.5x the
      // cell's capacity, so the cluster must shed or degrade, then recover.
      constant_rate_load = true;
      client->StartConstantRate(rate, [&load_rng, universe] {
        TraceRecord record;
        record.user_id = StrFormat(
            "u%lld", static_cast<long long>(load_rng.Zipf(256, 0.7)));
        record.url = universe->UrlAt(load_rng.Zipf(universe->url_count(), 0.9));
        return record;
      });
      SimTime flash_on = sim->now() + load_window * 3 / 10;
      SimTime flash_off = sim->now() + load_window * 11 / 20;
      sim->ScheduleAt(flash_on, [client, rate] { client->SetRate(10.0 * rate); });
      sim->ScheduleAt(flash_off, [client, rate] { client->SetRate(rate); });
      break;
    }
    case WorkloadShape::kReplay:
    case WorkloadShape::kDiurnal: {
      // Trace playback through the Fig. 6 burst generator. Replay keeps the
      // diurnal swing flat (pure short-timescale burstiness); diurnal
      // compresses a full 24 h cycle into the measured window.
      TraceGenConfig gen;
      gen.seed = cell.seed ^ 0xD1A17ULL;
      gen.duration = load_window;
      gen.mean_rate = rate;
      gen.user_count = 256;
      if (cell.workload == WorkloadShape::kDiurnal) {
        gen.diurnal_amplitude = 0.55;
        gen.diurnal_period = load_window;
      } else {
        gen.diurnal_amplitude = 0.0;
      }
      TraceGenerator generator(gen, universe);
      client->PlayTrace(generator.GenerateVector(), Seconds(1));
      break;
    }
    case WorkloadShape::kStream: {
      // Long-lived sessions emitting fresh frames on per-frame deadlines; the
      // schedule generator lives in src/tacc/streaming.h.
      std::vector<StreamFrame> frames =
          GenerateStreamFrames(result.cell.stream, universe->url_count());
      std::vector<TraceRecord> records;
      records.reserve(frames.size());
      for (const StreamFrame& frame : frames) {
        TraceRecord record;
        record.time = frame.at;
        record.user_id = StreamUserId(frame.session);
        record.url = universe->UrlAt(frame.url_index);
        records.push_back(std::move(record));
      }
      client->PlayTrace(std::move(records), Seconds(1));
      break;
    }
  }
  SimTime load_start = sim->now() + (constant_rate_load ? 0 : Seconds(1));

  // --- Fault schedule, compiled through the campaign's applicator. ----------------
  FailureInjector injector(system->cluster(), system->san());
  system->AttachFailureInjector(&injector);
  FaultSchedule schedule;
  if (cell.fault_seed != 0) {
    schedule = GenerateSchedule(cell.fault_seed, cell.gen);
    ScheduleFaults(schedule, load_start, system, &injector);
  }

  sim->RunFor(load_window + Seconds(1));
  if (constant_rate_load) {
    client->StopLoad();
  }
  // Drain: every outstanding request completes or times out.
  sim->RunFor(kRequestTimeout + Seconds(2));
  // Settle: beacons, TTL expiries, and rebalance passes converge the soft state.
  sim->RunFor(kQuiesceSettle);

  result.invariants = CheckInvariantsAtQuiesce(system, {client, warm_client});
  result.faults_injected = injector.injected_count();

  CellMetrics& m = result.metrics;
  m.sent = client->sent();
  m.completed = client->completed();
  m.errors = client->errors();
  m.timeouts = client->timeouts();
  m.late_completions = client->late_completions();
  m.latency_p50_s = client->latency_histogram().Percentile(0.50);
  m.latency_p99_s = client->latency_histogram().Percentile(0.99);
  int64_t hits = 0;
  int64_t misses = 0;
  for (int node : cache_node_ids) {
    std::string prefix = StrFormat("cache.n%d.", node);
    hits += static_cast<int64_t>(
        system->metrics()->GetGauge(prefix + "hits")->value());
    misses += static_cast<int64_t>(
        system->metrics()->GetGauge(prefix + "misses")->value());
  }
  m.hit_rate = (hits + misses) > 0
                   ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                   : 1.0;
  m.recovery_s = static_cast<double>(LongestZeroCompletionGap(
      client->completions_per_second(), load_start / kSecond + 1,
      (load_start + load_window) / kSecond));
  // Both playback engines (warmup and load) share the system ledger, so the
  // run-level yield/harvest cover every request the cell ever offered —
  // consistent with the never-reset accounting above.
  m.yield = system->availability()->RunYield();
  m.harvest = system->availability()->RunHarvest();
  result.availability_table = system->availability()->RenderTable(system->event_log());

  if (!options.artifact_dir.empty()) {
    std::string path = options.artifact_dir + "/BENCH_matrix_" + cell.Name() +
                       options.artifact_suffix + ".json";
    // The uniform run artifact plus the cell's "matrix" section (the validator
    // allows extra sections, so matrix artifacts pass the same schema check).
    std::vector<ArtifactSection> sections = system->ArtifactSections();
    sections.push_back({"matrix", MatrixSectionJson(result)});
    result.artifact_written = WriteRunArtifact(path, "matrix_" + result.cell.Name(),
                                               sim->now(), sections);
    result.artifact_path = path;
  }
  return result;
}

}  // namespace sns

// Microbenchmarks of the substrate components (google-benchmark).
//
// Not a paper table — these guard the performance of the building blocks the
// simulation rests on: the event queue, the SAN delivery path, the codecs, the
// caches, the index. The event-core benchmarks run identical workloads against
// the production timer wheel (src/sim/simulator.h) and the retired binary-heap
// algorithm (bench/reference_heap_sim.h) so the wheel's speedup is measured,
// not assumed.
//
// Unlike the paper-table benches this binary wraps google-benchmark, so it
// emits its BENCH_micro_substrate.json artifact from a custom main: the
// snapshot section carries events/sec for every benchmark plus the
// wheel-vs-heap speedup on the schedule/cancel churn workload, keeping the
// event-core perf trajectory visible PR-over-PR. `--short` (the perf-smoke
// fixture flag) maps to a small --benchmark_min_time.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/reference_heap_sim.h"
#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/image.h"
#include "src/content/jpeg_codec.h"
#include "src/net/san.h"
#include "src/obs/artifact.h"
#include "src/obs/availability.h"
#include "src/obs/profiler.h"
#include "src/services/hotbot/inverted_index.h"
#include "src/sim/simulator.h"
#include "src/store/consistent_hash.h"
#include "src/store/kvstore.h"
#include "src/store/lru_cache.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace sns {
namespace {

// Every benchmark opens a root profiler zone covering its whole invocation
// (setup + timed loop), so the artifact's profile section can attribute the
// binary's wall clock: bench.* roots hold the coverage, and the engine zones
// (sim.*, san.*) nest inside them showing where the substrate itself burns it.
void BM_SimulatorScheduleRun(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.SimulatorScheduleRun");
  for (auto _ : state) {
    Simulator sim;
    int64_t counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i * kMicrosecond, [&counter] { ++counter; });
    }
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// --- Event-core churn: steady-state schedule/cancel mix ----------------------
//
// The workload the wheel was built for: a large standing population of pending
// timers (retry timeouts, beacon periods) where most timers are cancelled and
// rearmed before they fire — exactly what overload-control and chaos runs do.
// Each op schedules one near-future event and cancels the one scheduled
// kLivePopulation ops ago (which may have fired already: a legal no-op cancel);
// a fraction of steps drains so the population stays steady.

constexpr size_t kLivePopulation = 4096;
constexpr int kChurnOpsPerIter = 1024;

template <typename SimT>
void ChurnScheduleCancel(benchmark::State& state) {
  SimT sim;
  Rng rng(42);
  std::vector<uint64_t> ring(kLivePopulation, 0);
  size_t pos = 0;
  int64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < kChurnOpsPerIter; ++i) {
      SimDuration delay =
          static_cast<SimDuration>(1000 + rng.Next() % 1000000);  // 1 µs .. 1 ms
      uint64_t id = sim.Schedule(delay, [&fired] { ++fired; });
      if (ring[pos] != 0) {
        sim.Cancel(ring[pos]);
      }
      ring[pos] = id;
      pos = (pos + 1) % kLivePopulation;
      if ((i & 15) == 0) {
        sim.Step();
      }
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kChurnOpsPerIter);
}

void BM_ChurnScheduleCancel_Wheel(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.ChurnScheduleCancel_Wheel");
  ChurnScheduleCancel<Simulator>(state);
}
BENCHMARK(BM_ChurnScheduleCancel_Wheel);

void BM_ChurnScheduleCancel_SeedHeap(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.ChurnScheduleCancel_SeedHeap");
  ChurnScheduleCancel<ReferenceHeapSim>(state);
}
BENCHMARK(BM_ChurnScheduleCancel_SeedHeap);

// --- Event-core blend: near, medium, and far (overflow-level) timers ---------
//
// 60% fire within microseconds (message hops), 30% within milliseconds
// (timeouts), 10% land past the wheel horizon (~68.7 s) and exercise the
// overflow level's migrate-in path.

constexpr int kBlendEventsPerIter = 8192;

template <typename SimT>
void FarNearBlend(benchmark::State& state) {
  for (auto _ : state) {
    SimT sim;
    Rng rng(7);
    int64_t fired = 0;
    for (int i = 0; i < kBlendEventsPerIter; ++i) {
      uint64_t pick = rng.Next() % 10;
      SimDuration delay;
      if (pick < 6) {
        delay = static_cast<SimDuration>(1 + rng.Next() % 10) * kMicrosecond;
      } else if (pick < 9) {
        delay = static_cast<SimDuration>(1 + rng.Next() % 10) * kMillisecond;
      } else {
        delay = Seconds(100) + static_cast<SimDuration>(rng.Next() % 100) * kMillisecond;
      }
      sim.Schedule(delay, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kBlendEventsPerIter);
}

void BM_FarNearBlend_Wheel(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.FarNearBlend_Wheel"); FarNearBlend<Simulator>(state); }
BENCHMARK(BM_FarNearBlend_Wheel);

void BM_FarNearBlend_SeedHeap(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.FarNearBlend_SeedHeap");
  FarNearBlend<ReferenceHeapSim>(state);
}
BENCHMARK(BM_FarNearBlend_SeedHeap);

// --- SAN delivery fan-out ----------------------------------------------------
//
// End-to-end transport cost: one multicast beacon replicated to 63 subscribers,
// each replica crossing ingress queueing + final delivery (two scheduled hops).
// Exercises the flattened routing tables and the move-through delivery lambdas.

void BM_SanMulticastFanout(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.SanMulticastFanout");
  Simulator sim;
  San san(&sim, SanConfig{});
  constexpr NodeId kNodes = 64;
  constexpr McastGroup kGroup = 1;
  int64_t received = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    san.AddNode(n);
    Endpoint ep{n, 100};
    san.Bind(ep, [&received](const Message&) { ++received; });
    san.JoinGroup(kGroup, ep);
  }
  for (auto _ : state) {
    Message beacon;
    beacon.src = Endpoint{0, 100};
    beacon.size_bytes = 256;
    san.SendMulticast(kGroup, std::move(beacon));
    sim.Run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * (kNodes - 1));
}
BENCHMARK(BM_SanMulticastFanout);

void BM_RngZipf(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.RngZipf");
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(100000, 0.9));
  }
}
BENCHMARK(BM_RngZipf);

void BM_LruCachePutGet(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.LruCachePutGet");
  LruCache<std::string, int64_t> cache(1 << 20, [](const int64_t&) { return int64_t{64}; });
  Rng rng(2);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = StrFormat("key%lld", static_cast<long long>(rng.Zipf(50000, 0.8)));
    if (!cache.Get(key).has_value()) {
      cache.Put(key, i++);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCachePutGet);

void BM_ConsistentHashLookup(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.ConsistentHashLookup");
  ConsistentHashRing ring(64);
  for (int64_t m = 0; m < state.range(0); ++m) {
    ring.AddMember(m);
  }
  Rng rng(3);
  for (auto _ : state) {
    std::string key = StrFormat("url%llu", static_cast<unsigned long long>(rng.Next() % 100000));
    benchmark::DoNotOptimize(ring.Lookup(key));
  }
}
BENCHMARK(BM_ConsistentHashLookup)->Arg(4)->Arg(64);

void BM_KvStoreCommit(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.KvStoreCommit");
  KvStore store;
  Rng rng(4);
  for (auto _ : state) {
    std::string key = StrFormat("user%llu", static_cast<unsigned long long>(rng.Next() % 10000));
    store.Put(key, std::string(128, 'x'));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreCommit);

void BM_JpegEncode(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.JpegEncode");
  Rng rng(5);
  RasterImage image = SynthesizePhoto(&rng, 160, 120);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JpegEncode(image, 25));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JpegEncode);

void BM_JpegRoundTrip(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.JpegRoundTrip");
  Rng rng(6);
  RasterImage image = SynthesizePhoto(&rng, 160, 120);
  std::vector<uint8_t> encoded = JpegEncode(image, 50);
  for (auto _ : state) {
    auto decoded = JpegDecode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_JpegRoundTrip);

void BM_GifEncode(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.GifEncode");
  Rng rng(7);
  RasterImage image = SynthesizePhoto(&rng, 160, 120);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GifEncode(image, 128));
  }
}
BENCHMARK(BM_GifEncode);

void BM_HtmlMunge(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.HtmlMunge");
  Rng rng(8);
  HtmlGenOptions options;
  options.paragraphs = 12;
  options.inline_images = 6;
  std::string page = GenerateHtmlPage(&rng, options);
  MungeOptions munge;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MungeHtml(page, munge));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_HtmlMunge);

void BM_InvertedIndexSearch(benchmark::State& state) {
  SNS_PROFILE_ZONE("bench.InvertedIndexSearch");
  CorpusConfig config;
  config.doc_count = 5000;
  std::vector<ShardPtr> shards = BuildShardedCorpus(config, 1);
  Rng rng(9);
  for (auto _ : state) {
    std::vector<std::string> terms = SampleQueryTerms(&rng, 2);
    benchmark::DoNotOptimize(shards[0]->Search(terms, 10));
  }
}
BENCHMARK(BM_InvertedIndexSearch);

// --- Artifact emission -------------------------------------------------------

// Console reporter that additionally captures each run's items/sec rate so the
// artifact can carry events/sec as a first-class, machine-readable metric.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rates_[run.benchmark_name()] = it->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& rates() const { return rates_; }

 private:
  std::map<std::string, double> rates_;
};

bool WriteArtifact(const std::map<std::string, double>& rates) {
  std::string events;
  for (const auto& [name, rate] : rates) {
    if (!events.empty()) events += ",";
    events += StrFormat("\"%s\":%.1f", JsonEscape(name).c_str(), rate);
  }
  auto rate_of = [&rates](const char* name) {
    auto it = rates.find(name);
    return it != rates.end() ? it->second : 0.0;
  };
  auto speedup = [&rate_of](const char* wheel, const char* heap) {
    return rate_of(heap) > 0 ? rate_of(wheel) / rate_of(heap) : 0.0;
  };
  double churn = speedup("BM_ChurnScheduleCancel_Wheel", "BM_ChurnScheduleCancel_SeedHeap");
  double blend = speedup("BM_FarNearBlend_Wheel", "BM_FarNearBlend_SeedHeap");
  // No cluster runs here, so the availability section is an empty ledger
  // (offered=0); the profile section is this binary's main payload.
  std::string snapshot = StrFormat(
      "{\"events_per_sec\":{%s},\"speedup_churn_wheel_vs_heap\":%.3f,"
      "\"speedup_blend_wheel_vs_heap\":%.3f}",
      events.c_str(), churn, blend);
  if (!WriteRunArtifact("BENCH_micro_substrate.json", "micro_substrate", 0,
                        {{"snapshot", snapshot},
                         {"timeseries", "{}"},
                         {"critical_path", "{}"},
                         {"availability", AvailabilityLedger().ToJson(nullptr)},
                         {"profile", Profiler::Get().ToJson()},
                         {"traces", "{}"}})) {
    return false;
  }
  std::printf("\nartifacts: BENCH_micro_substrate.json "
              "(churn speedup wheel/heap: %.2fx; profile coverage %.1f%%, "
              "self-overhead %.2f%%)\n",
              churn, 100.0 * Profiler::Get().Coverage(),
              100.0 * Profiler::Get().SelfOverhead());
  return true;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) {
  // Map the repo-wide perf-smoke `--short` flag onto a small min_time; pass
  // everything else through to google-benchmark untouched.
  std::vector<char*> args;
  bool short_mode = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--short") {
      short_mode = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = short_mode ? "--benchmark_min_time=0.05" : "--benchmark_min_time=0.2";
  args.push_back(min_time.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  // This binary doubles as the profiled workload for the wall-clock zone
  // profiler: collection is always on, and the Begin/End bracket is the window
  // the artifact's coverage and self-overhead fractions are computed against
  // (profile-smoke gates on both).
  sns::Profiler::Get().Enable();
  sns::Profiler::Get().BeginMeasurement();
  sns::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  sns::Profiler::Get().EndMeasurement();
  benchmark::Shutdown();
  return sns::WriteArtifact(reporter.rates()) ? 0 : 1;
}

// Figure 7: average distillation latency vs GIF input size.
//
// The paper measured "an approximately linear relationship between distillation
// time and input size, although a large variation in distillation time is observed
// for any particular data size. The slope of this relationship is approximately
// 8 milliseconds per kilobyte of input", over ~100,000 items from the dialup trace.

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "src/services/transend/distillers.h"
#include "src/util/strings.h"
#include "src/util/stats.h"
#include "src/workload/size_model.h"

namespace sns {
namespace {

constexpr int64_t kItems = 100000;

void Run() {
  benchutil::Header("Figure 7: distillation latency vs GIF input size",
                    "paper Fig. 7 / Section 4.3");

  SizeModel model;
  Rng rng(0xF167);
  GifDistiller distiller;

  // Bucket by input size (1 KB cells, as the scatter suggests) and also collect
  // points for a least-squares slope fit.
  std::map<int64_t, RunningStats> by_bucket;
  double sum_x = 0;
  double sum_y = 0;
  double sum_xx = 0;
  double sum_xy = 0;
  int64_t n = 0;

  for (int64_t i = 0; i < kItems; ++i) {
    int64_t size = model.SampleSize(MimeType::kGif, &rng);
    TaccRequest request;
    request.url = StrFormat("http://trace/item%lld.gif", static_cast<long long>(i));
    request.inputs.push_back(Content::Make(request.url, MimeType::kGif,
                                           std::vector<uint8_t>(static_cast<size_t>(size))));

    double latency_s = ToSeconds(distiller.EstimateCost(request));
    by_bucket[size / 1024].Add(latency_s);
    double kb = static_cast<double>(size) / 1024.0;
    sum_x += kb;
    sum_y += latency_s;
    sum_xx += kb * kb;
    sum_xy += kb * latency_s;
    ++n;
  }

  double slope_s_per_kb =
      (static_cast<double>(n) * sum_xy - sum_x * sum_y) /
      (static_cast<double>(n) * sum_xx - sum_x * sum_x);

  std::printf("\n%-14s %-10s %-12s %-12s %-10s\n", "input size", "items", "avg lat (s)",
              "stddev (s)", "max (s)");
  for (const auto& [bucket, stats] : by_bucket) {
    if (bucket > 30) {
      break;  // The figure's x-axis tops out at 30000 bytes.
    }
    std::printf("%5lld-%-5lld KB %-10lld %-12.4f %-12.4f %-10.4f\n",
                static_cast<long long>(bucket), static_cast<long long>(bucket + 1),
                static_cast<long long>(stats.count()), stats.mean(), stats.stddev(),
                stats.max());
  }

  std::printf("\nFitted slope: %.2f ms per input KB (paper: ~8 ms/KB)\n",
              slope_s_per_kb * 1000.0);
  std::printf("Per-size variance is large by construction (lognormal cost noise), matching\n"
              "the wide scatter the paper observed for any particular data size.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

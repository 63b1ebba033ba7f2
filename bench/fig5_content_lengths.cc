// Figure 5: distribution of content lengths for HTML, GIF, and JPEG.
//
// The paper reports average content lengths of HTML 5131 B / GIF 3428 B /
// JPEG 12070 B, a bimodal GIF distribution with plateaus on both sides of the 1 KB
// distillation threshold, a JPEG distribution that "falls off rapidly under the
// 1KB mark", and error-message spikes at the far left of the image curves.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/stats.h"
#include "src/workload/size_model.h"

namespace sns {
namespace {

constexpr int64_t kSamples = 1000000;

void Run() {
  benchutil::Header("Figure 5: content-length distributions", "paper Fig. 5 / Section 4.1");

  SizeModel model;
  Rng rng(0xF165);

  struct TypeStats {
    const char* name;
    MimeType mime;
    double paper_mean;
    LogHistogram hist{10, 1e6, 8};
    int64_t below_1k = 0;
    int64_t total = 0;
    int64_t error_pages = 0;
  };
  TypeStats stats[3] = {{"HTML", MimeType::kHtml, 5131.0},
                        {"GIF", MimeType::kGif, 3428.0},
                        {"JPEG", MimeType::kJpeg, 12070.0}};

  for (int64_t i = 0; i < kSamples; ++i) {
    for (TypeStats& type : stats) {
      int64_t size;
      if (model.SampleErrorPage(type.mime, &rng)) {
        size = rng.UniformInt(kErrorPageMinBytes, kErrorPageMaxBytes);
        ++type.error_pages;
      } else {
        size = model.SampleSize(type.mime, &rng);
      }
      type.hist.Add(static_cast<double>(size));
      ++type.total;
      if (size < 1024) {
        ++type.below_1k;
      }
    }
  }

  std::printf("\n%-6s %-12s %-12s %-10s %-10s %-10s %s\n", "type", "mean (B)", "paper mean",
              "median", "p90", "<1KB", "error-page spike");
  for (const TypeStats& type : stats) {
    std::printf("%-6s %-12.0f %-12.0f %-10.0f %-10.0f %-9.1f%% %.2f%%\n", type.name,
                type.hist.summary().mean(), type.paper_mean, type.hist.Percentile(0.5),
                type.hist.Percentile(0.9),
                100.0 * static_cast<double>(type.below_1k) / static_cast<double>(type.total),
                100.0 * static_cast<double>(type.error_pages) / static_cast<double>(type.total));
  }

  // The figure itself: probability per log-spaced size bucket.
  std::printf("\nProbability mass per size bucket (log scale, as in the figure):\n");
  std::printf("%-12s %8s %8s %8s\n", "size >=", "HTML", "GIF", "JPEG");
  for (size_t b = 0; b < stats[0].hist.bucket_count(); ++b) {
    double lo = stats[0].hist.BucketLow(b);
    if (lo < 10 || lo >= 1e6) {
      continue;
    }
    std::printf("%-12.0f %8.4f %8.4f %8.4f  ", lo, stats[0].hist.Fraction(b),
                stats[1].hist.Fraction(b), stats[2].hist.Fraction(b));
    int bar = static_cast<int>(stats[1].hist.Fraction(b) * 400);
    for (int i = 0; i < bar && i < 40; ++i) {
      std::printf("#");  // GIF curve sketch: the bimodality shows as two humps.
    }
    std::printf("\n");
  }

  // Shape claims from the paper.
  std::printf("\nShape checks:\n");
  double gif_below = static_cast<double>(stats[1].below_1k) / static_cast<double>(stats[1].total);
  std::printf("  GIF bimodality: %.0f%% below the 1 KB threshold, %.0f%% above "
              "(paper: the threshold 'exactly separates these two classes')\n",
              100 * gif_below, 100 * (1 - gif_below));
  double jpeg_below =
      static_cast<double>(stats[2].below_1k) / static_cast<double>(stats[2].total);
  std::printf("  JPEG below 1 KB: %.1f%% (paper: 'falls off rapidly under the 1KB mark')\n",
              100 * jpeg_below);
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}

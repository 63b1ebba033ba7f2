// Tests for the workload models: size distributions, the content universe, the
// trace generator, and bucketing.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/jpeg_codec.h"
#include "src/util/stats.h"
#include "src/workload/content_universe.h"
#include "src/workload/size_model.h"
#include "src/workload/trace.h"

namespace sns {
namespace {

// ---------- size model --------------------------------------------------------------

TEST(SizeModelTest, MimeMixMatchesPaper) {
  SizeModel model;
  Rng rng(1);
  int gif = 0;
  int html = 0;
  int jpeg = 0;
  int other = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    switch (model.SampleMime(&rng)) {
      case MimeType::kGif:
        ++gif;
        break;
      case MimeType::kHtml:
        ++html;
        break;
      case MimeType::kJpeg:
        ++jpeg;
        break;
      case MimeType::kOther:
        ++other;
        break;
    }
  }
  EXPECT_NEAR(gif / double(kN), 0.50, 0.01);
  EXPECT_NEAR(html / double(kN), 0.22, 0.01);
  EXPECT_NEAR(jpeg / double(kN), 0.18, 0.01);
  EXPECT_NEAR(other / double(kN), 0.10, 0.01);
}

// Property sweep over types: mean sizes land near the paper's trace averages.
// The listed test names print each case's bytes, so the struct has no padding:
// `reserved` fills the four bytes after `mime` and keeps every name stable.
struct MeanCase {
  MimeType mime;
  std::int32_t reserved = 0;
  double paper_mean;
  double tolerance;
};
static_assert(sizeof(MeanCase) == sizeof(MimeType) + sizeof(std::int32_t) + 2 * sizeof(double),
              "MeanCase must have no padding bytes");

class SizeMeanSweep : public ::testing::TestWithParam<MeanCase> {};

TEST_P(SizeMeanSweep, MeanNearPaperValue) {
  const MeanCase& c = GetParam();
  SizeModel model;
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 300000; ++i) {
    stats.Add(static_cast<double>(model.SampleSize(c.mime, &rng)));
  }
  EXPECT_NEAR(stats.mean() / c.paper_mean, 1.0, c.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    PaperMeans, SizeMeanSweep,
    ::testing::Values(MeanCase{.mime = MimeType::kHtml, .paper_mean = 5131, .tolerance = 0.08},
                      MeanCase{.mime = MimeType::kGif, .paper_mean = 3428, .tolerance = 0.08},
                      MeanCase{.mime = MimeType::kJpeg, .paper_mean = 12070, .tolerance = 0.08}));

TEST(SizeModelTest, GifIsBimodalAroundOneKb) {
  SizeModel model;
  Rng rng(3);
  int below = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (model.SampleSize(MimeType::kGif, &rng) < 1024) {
      ++below;
    }
  }
  // The icon plateau: roughly half of GIFs below the threshold (paper Fig. 5).
  EXPECT_GT(below / double(kN), 0.40);
  EXPECT_LT(below / double(kN), 0.65);
}

TEST(SizeModelTest, JpegFallsOffBelowOneKb) {
  SizeModel model;
  Rng rng(4);
  int below = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (model.SampleSize(MimeType::kJpeg, &rng) < 1024) {
      ++below;
    }
  }
  EXPECT_LT(below / double(kN), 0.08);
}

TEST(SizeModelTest, SizesRespectBounds) {
  SizeModel model;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    int64_t size = model.SampleSize(MimeType::kHtml, &rng);
    EXPECT_GE(size, model.config().min_bytes);
    EXPECT_LE(size, model.config().max_bytes);
  }
}

// ---------- content universe --------------------------------------------------------

TEST(UniverseTest, ContentIsDeterministicPerUrl) {
  ContentUniverseConfig config;
  config.url_count = 100;
  ContentUniverse a(config);
  ContentUniverse b(config);
  for (int i = 0; i < 20; ++i) {
    std::string url = a.UrlAt(i);
    EXPECT_EQ(url, b.UrlAt(i));
    EXPECT_EQ(a.GetContent(url)->bytes, b.GetContent(url)->bytes);
  }
}

TEST(UniverseTest, DifferentSeedsDiffer) {
  ContentUniverseConfig ca;
  ContentUniverseConfig cb;
  cb.seed = ca.seed + 1;
  ContentUniverse a(ca);
  ContentUniverse b(cb);
  EXPECT_NE(a.GetContent(a.UrlAt(0))->bytes, b.GetContent(a.UrlAt(0))->bytes);
}

TEST(UniverseTest, SizesTrackModeledSizes) {
  ContentUniverseConfig config;
  config.url_count = 300;
  ContentUniverse universe(config);
  for (int i = 0; i < 100; ++i) {
    std::string url = universe.UrlAt(i);
    ContentPtr content = universe.GetContent(url);
    // Padding guarantees >= modeled size; generation may exceed slightly.
    EXPECT_GE(content->size(), universe.ModeledSize(url));
    EXPECT_LE(content->size(), universe.ModeledSize(url) * 2 + 4096);
  }
}

TEST(UniverseTest, MimeFollowsExtension) {
  ContentUniverseConfig config;
  config.url_count = 500;
  ContentUniverse universe(config);
  int gif = 0;
  for (int i = 0; i < 500; ++i) {
    std::string url = universe.UrlAt(i);
    EXPECT_EQ(universe.MimeOf(url), universe.GetContent(url)->mime);
    gif += universe.MimeOf(url) == MimeType::kGif ? 1 : 0;
  }
  EXPECT_GT(gif, 180);  // ~50% by the request mix.
}

TEST(UniverseTest, OpaqueImagesFailMagicCheck) {
  ContentUniverseConfig config;
  config.url_count = 200;
  config.real_image_max_bytes = 0;  // All imagery opaque.
  ContentUniverse universe(config);
  for (int i = 0; i < 200; ++i) {
    std::string url = universe.UrlAt(i);
    if (universe.MimeOf(url) == MimeType::kGif) {
      EXPECT_FALSE(IsRealImage(MimeType::kGif, universe.GetContent(url)->bytes));
    }
  }
}

TEST(UniverseTest, RealImagesDecode) {
  ContentUniverseConfig config;
  config.url_count = 400;
  config.real_image_max_bytes = 20000;
  ContentUniverse universe(config);
  int real_checked = 0;
  for (int i = 0; i < 400 && real_checked < 5; ++i) {
    std::string url = universe.UrlAt(i);
    ContentPtr content = universe.GetContent(url);
    if (content->mime == MimeType::kGif && IsGif(content->bytes)) {
      EXPECT_TRUE(GifDecode(content->bytes).ok());
      ++real_checked;
    } else if (content->mime == MimeType::kJpeg && IsJpeg(content->bytes)) {
      EXPECT_TRUE(JpegDecode(content->bytes).ok());
      ++real_checked;
    }
  }
  EXPECT_GT(real_checked, 0);
}

TEST(UniverseTest, HtmlContentIsRealMarkup) {
  ContentUniverseConfig config;
  config.url_count = 300;
  ContentUniverse universe(config);
  for (int i = 0; i < 300; ++i) {
    std::string url = universe.UrlAt(i);
    if (universe.MimeOf(url) == MimeType::kHtml) {
      ContentPtr content = universe.GetContent(url);
      std::string text(content->bytes.begin(), content->bytes.end());
      EXPECT_NE(text.find("<html>"), std::string::npos);
      return;
    }
  }
  FAIL() << "no HTML url in first 300";
}

TEST(UniverseTest, PopularUrlsFollowZipf) {
  ContentUniverseConfig config;
  config.url_count = 1000;
  ContentUniverse universe(config);
  Rng rng(6);
  std::map<std::string, int> counts;
  for (int i = 0; i < 50000; ++i) {
    ++counts[universe.SamplePopularUrl(&rng)];
  }
  // Rank-0 URL drawn far more often than a mid-rank one.
  EXPECT_GT(counts[universe.UrlAt(0)], counts[universe.UrlAt(500)] * 3);
}

// ---------- trace generation ----------------------------------------------------------

TEST(TraceTest, RateMatchesConfiguredMean) {
  TraceGenConfig config;
  config.duration = Hours(4);
  config.mean_rate = 5.8;
  config.diurnal_amplitude = 0.0;  // Flat for a clean mean check.
  TraceGenerator generator(config, nullptr);
  int64_t count = generator.Generate([](const TraceRecord&) {});
  double rate = static_cast<double>(count) / (4 * 3600.0);
  EXPECT_NEAR(rate, 5.8, 0.8);
}

TEST(TraceTest, DiurnalCycleVisible) {
  TraceGenConfig config;
  config.duration = Hours(24);
  config.mean_rate = 5.0;
  TraceGenerator generator(config, nullptr);
  std::vector<SimTime> times;
  generator.Generate([&](const TraceRecord& r) { times.push_back(r.time); });
  auto hourly = BucketCounts(times, Hours(1), Hours(24));
  // Midday (peak of the sinusoid) beats the early-morning trough.
  int64_t peak = hourly[12];
  int64_t trough = hourly[2];
  EXPECT_GT(peak, trough * 2);
}

TEST(TraceTest, DeterministicForSeed) {
  TraceGenConfig config;
  config.duration = Minutes(30);
  ContentUniverseConfig uconfig;
  uconfig.url_count = 50;
  ContentUniverse universe(uconfig);
  TraceGenerator a(config, &universe);
  TraceGenerator b(config, &universe);
  auto ra = a.GenerateVector();
  auto rb = b.GenerateVector();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].time, rb[i].time);
    EXPECT_EQ(ra[i].url, rb[i].url);
    EXPECT_EQ(ra[i].user_id, rb[i].user_id);
  }
}

TEST(TraceTest, VectorIsSortedByTime) {
  TraceGenConfig config;
  config.duration = Minutes(10);
  TraceGenerator generator(config, nullptr);
  auto records = generator.GenerateVector();
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
}

TEST(BucketCountsTest, CountsPerBucket) {
  std::vector<SimTime> times = {Seconds(0), Seconds(1), Milliseconds(1500.0), Seconds(5),
                                Seconds(100)};
  auto counts = BucketCounts(times, Seconds(2), Seconds(10));
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 3);  // 0, 1, 1.5
  EXPECT_EQ(counts[2], 1);  // 5
  // 100 s is outside the window: ignored.
  int64_t total = 0;
  for (int64_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, 4);
}

}  // namespace
}  // namespace sns

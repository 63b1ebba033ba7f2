// Tests for the workload models: size distributions, the content universe, the
// trace generator, and bucketing.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/jpeg_codec.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/workload/content_universe.h"
#include "src/workload/size_model.h"
#include "src/workload/trace.h"

namespace sns {
namespace {

// ---------- uniform load source ------------------------------------------------------

TEST(UniformUrlsTest, DrawsUniformIndicesFromItsOwnRng) {
  ContentUniverseConfig config;
  config.url_count = 37;
  ContentUniverse universe(config);
  constexpr uint64_t kSeed = 0x5EED;
  std::function<TraceRecord()> next = UniformUrls(&universe, kSeed, "x");
  Rng reference(kSeed);
  for (int i = 0; i < 200; ++i) {
    TraceRecord record = next();
    EXPECT_EQ(record.user_id, "x");
    EXPECT_EQ(record.url, universe.UrlAt(reference.UniformInt(0, config.url_count - 1)));
  }
}

TEST(UniformUrlsTest, SourcesWithTheSameSeedAdvanceIndependently) {
  ContentUniverseConfig config;
  config.url_count = 1000;
  ContentUniverse universe(config);
  std::function<TraceRecord()> a = UniformUrls(&universe, 7, "a");
  std::function<TraceRecord()> b = UniformUrls(&universe, 7, "b");
  std::vector<std::string> from_a;
  for (int i = 0; i < 10; ++i) {
    from_a.push_back(a().url);
  }
  // b starts from the seed, not where a left off.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b().url, from_a[static_cast<size_t>(i)]);
  }
}

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
    EXPECT_GE(size, kMinContentBytes);
    EXPECT_LE(size, kMaxContentBytes);
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
    EXPECT_EQ(a.GetContent(url)->bytes(), b.GetContent(url)->bytes());
  }
}

TEST(UniverseTest, DifferentSeedsDiffer) {
  ContentUniverseConfig ca;
  ContentUniverseConfig cb;
  cb.seed = ca.seed + 1;
  ContentUniverse a(ca);
  ContentUniverse b(cb);
  EXPECT_NE(a.GetContent(a.UrlAt(0))->bytes(), b.GetContent(a.UrlAt(0))->bytes());
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

TEST(UniverseTest, UrlsKeepTheirPrintfForm) {
  ContentUniverseConfig config;
  ContentUniverse universe(config);
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{976}, int64_t{977}, int64_t{123456},
                    int64_t{9999999999}, INT64_MAX}) {
    std::string url = universe.UrlAt(i);
    std::string ext = url.substr(url.rfind('.') + 1);
    EXPECT_TRUE(ext == "html" || ext == "gif" || ext == "jpg" || ext == "dat") << url;
    EXPECT_EQ(url, StrFormat("http://site%lld.example.edu/obj%lld.%s",
                             static_cast<long long>(i % 977), static_cast<long long>(i),
                             ext.c_str()));
  }
}

TEST(UniverseTest, OpaqueImagesFailMagicCheck) {
  ContentUniverseConfig config;
  config.url_count = 200;
  config.real_image_max_bytes = 0;  // All imagery opaque.
  ContentUniverse universe(config);
  for (int i = 0; i < 200; ++i) {
    std::string url = universe.UrlAt(i);
    if (universe.MimeOf(url) == MimeType::kGif) {
      EXPECT_FALSE(IsRealImage(MimeType::kGif, universe.GetContent(url)->bytes()));
    }
  }
}

TEST(UniverseTest, OpaqueContentHasExactlyTheModeledSize) {
  ContentUniverseConfig config;
  config.url_count = 400;
  config.real_image_max_bytes = 0;  // All imagery opaque.
  ContentUniverse universe(config);
  int opaque_images = 0;
  int unaligned = 0;
  for (int i = 0; i < 400; ++i) {
    std::string url = universe.UrlAt(i);
    MimeType mime = universe.MimeOf(url);
    if (mime == MimeType::kHtml) {
      continue;
    }
    ContentPtr content = universe.GetContent(url);
    const std::vector<uint8_t>& bytes = content->bytes();
    int64_t modeled = universe.ModeledSize(url);
    EXPECT_EQ(static_cast<int64_t>(bytes.size()), modeled) << url;
    if (mime == MimeType::kOther || bytes[0] == '<') {
      continue;  // Opaque data, or an HTML error page under an image URL.
    }
    ++opaque_images;
    unaligned += modeled % 8 != 0 ? 1 : 0;
    EXPECT_EQ(bytes[0], 'X') << url;
    EXPECT_EQ(bytes[1], 'X') << url;
  }
  EXPECT_GT(opaque_images, 100);
  EXPECT_GT(unaligned, 50);  // The n % 8 tail path is exercised.
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
    if (content->mime == MimeType::kGif && IsGif(content->bytes())) {
      EXPECT_TRUE(GifDecode(content->bytes()).ok());
      ++real_checked;
    } else if (content->mime == MimeType::kJpeg && IsJpeg(content->bytes())) {
      EXPECT_TRUE(JpegDecode(content->bytes()).ok());
      ++real_checked;
    }
  }
  EXPECT_GT(real_checked, 0);
}

TEST(UniverseTest, RetainsNoContentAfterCallerDropsIt) {
  ContentUniverseConfig config;
  config.url_count = 1000;
  config.real_image_max_bytes = 0;  // All imagery opaque.
  ContentUniverse universe(config);
  // One URL of each kind: HTML, opaque image, error page under an image URL, kOther.
  std::map<std::string, std::string> url_of_kind;
  for (int i = 0; i < 1000 && url_of_kind.size() < 4; ++i) {
    std::string url = universe.UrlAt(i);
    ContentPtr content = universe.GetContent(url);
    const char* kind = content->mime == MimeType::kHtml    ? "html"
                       : content->mime == MimeType::kOther ? "other"
                       : content->bytes()[0] == '<'          ? "error page"
                                                           : "opaque image";
    url_of_kind.emplace(kind, url);
  }
  ASSERT_EQ(url_of_kind.size(), 4u);
  for (const auto& [kind, url] : url_of_kind) {
    ContentPtr content = universe.GetContent(url);
    std::weak_ptr<const Content> weak = content;
    ASSERT_FALSE(weak.expired()) << kind;
    content.reset();
    EXPECT_TRUE(weak.expired()) << kind << " " << url;
  }
}

TEST(UniverseTest, RegeneratedContentIsByteIdentical) {
  for (int64_t real_image_max_bytes : {int64_t{0}, int64_t{20000}}) {
    ContentUniverseConfig config;
    config.url_count = 200;
    config.real_image_max_bytes = real_image_max_bytes;
    ContentUniverse universe(config);
    int64_t calls = 0;
    int64_t bytes = 0;
    int real_images = 0;
    for (int i = 0; i < 40; ++i) {
      std::string url = universe.UrlAt(i);
      const Content first = *universe.GetContent(url);  // A copy; the ContentPtr is dropped.
      ContentPtr again = universe.GetContent(url);
      calls += 2;
      bytes += first.size() + again->size();
      EXPECT_EQ(again->bytes(), first.bytes()) << url;
      EXPECT_EQ(again->mime, first.mime) << url;
      EXPECT_EQ(again->url, first.url) << url;
      real_images += IsRealImage(first.mime, first.bytes()) ? 1 : 0;
    }
    EXPECT_EQ(universe.generated_count(), calls);
    EXPECT_EQ(universe.generated_bytes(), bytes);
    if (real_image_max_bytes > 0) {
      EXPECT_GT(real_images, 0);  // The codec path is regenerated too.
    }
  }
}

TEST(UniverseTest, HtmlContentIsRealMarkup) {
  ContentUniverseConfig config;
  config.url_count = 300;
  ContentUniverse universe(config);
  for (int i = 0; i < 300; ++i) {
    std::string url = universe.UrlAt(i);
    if (universe.MimeOf(url) == MimeType::kHtml) {
      ContentPtr content = universe.GetContent(url);
      std::string text(content->bytes().begin(), content->bytes().end());
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

// Tests for TranSend's distillers (real transforms + reduction model) and the
// dispatch logic's cache keys and quality mapping.

#include <gtest/gtest.h>

#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/jpeg_codec.h"
#include "src/services/transend/distillers.h"
#include "src/services/transend/transend.h"
#include "src/services/transend/transend_logic.h"
#include "src/util/strings.h"
#include "src/workload/content_universe.h"
#include "tests/opaque_reference.h"

namespace sns {
namespace {

TaccRequest ImageRequest(ContentPtr content, int scale, int quality) {
  TaccRequest request;
  request.url = content->url;
  request.inputs.push_back(std::move(content));
  request.args[kArgScale] = std::to_string(scale);
  request.args[kArgQuality] = std::to_string(quality);
  return request;
}

ContentPtr RealJpeg(int w, int h, int quality, uint64_t seed = 31) {
  Rng rng(seed);
  RasterImage img = SynthesizePhoto(&rng, w, h);
  return Content::Make("http://x/photo.jpg", MimeType::kJpeg, JpegEncode(img, quality));
}

ContentPtr RealGif(int w, int h, uint64_t seed = 32) {
  Rng rng(seed);
  RasterImage img = SynthesizePhoto(&rng, w, h);
  return Content::Make("http://x/photo.gif", MimeType::kGif, GifEncode(img, 128));
}

ContentPtr OpaqueImage(MimeType mime, int64_t size) {
  std::vector<uint8_t> bytes(static_cast<size_t>(size), 0x7F);
  bytes[0] = 'X';
  bytes[1] = 'X';
  return Content::Make(mime == MimeType::kGif ? "http://x/o.gif" : "http://x/o.jpg", mime,
                       std::move(bytes));
}

// ---------- JPEG distiller -----------------------------------------------------------

TEST(JpegDistillerTest, RealImageShrinksAndHalvesDimensions) {
  JpegDistiller distiller;
  ContentPtr original = RealJpeg(128, 96, 85);
  TaccResult result = distiller.Process(ImageRequest(original, 2, 25));
  ASSERT_TRUE(result.status.ok());
  EXPECT_LT(result.output->size(), original->size());
  auto decoded = JpegDecode(result.output->bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width(), 64);
  EXPECT_EQ(decoded->height(), 48);
}

TEST(JpegDistillerTest, OpaqueImageUsesReductionModel) {
  JpegDistiller distiller;
  ContentPtr original = OpaqueImage(MimeType::kJpeg, 10240);
  TaccResult result = distiller.Process(ImageRequest(original, 2, 25));
  ASSERT_TRUE(result.status.ok());
  int64_t expected = static_cast<int64_t>(10240 * ImageReductionRatio(2, 25));
  EXPECT_NEAR(static_cast<double>(result.output->size()), static_cast<double>(expected),
              expected * 0.1 + 200.0);
}

TEST(JpegDistillerTest, OpaqueOutputHasModeledSizeFloorAndHeader) {
  JpegDistiller distiller;
  // 10001 * 0.1125 -> 1125 bytes, not a multiple of 8; 1000 * 0.1125 -> 112,
  // under the 160-byte floor.
  for (int64_t in_size : {10001, 1000}) {
    SCOPED_TRACE(in_size);
    auto out = static_cast<int64_t>(static_cast<double>(in_size) * ImageReductionRatio(2, 25));
    TaccRequest request = ImageRequest(OpaqueImage(MimeType::kJpeg, in_size), 2, 25);
    TaccResult result = distiller.Process(request);
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.output->size(), std::max<int64_t>(out, 160));
    EXPECT_EQ(result.output->bytes()[0], 'X');
    EXPECT_EQ(result.output->bytes()[1], 'X');
    EXPECT_EQ(distiller.Process(request).output->bytes(), result.output->bytes());
  }
}

TEST(JpegDistillerTest, WordAtATimeOpaqueBytesMatchByteLoop) {
  for (const std::string url : {"http://x/a.jpg", "http://example.com/img/12345.gif"}) {
    for (size_t n = 160; n <= 2048; ++n) {  // Every tail length 0..7 many times over.
      std::vector<uint8_t> got(n);
      FillOpaqueBytes(url, got.data(), n);
      ASSERT_EQ(got, ReferenceOpaqueBytes(url, n)) << url << " n=" << n;
    }
  }
}

TEST(JpegDistillerTest, FailsOnEmptyInput) {
  JpegDistiller distiller;
  TaccRequest request;
  request.url = "http://x/a.jpg";
  EXPECT_FALSE(distiller.Process(request).status.ok());
}

TEST(JpegDistillerTest, CostScalesWithInputSize) {
  JpegDistiller distiller;
  TaccRequest small = ImageRequest(OpaqueImage(MimeType::kJpeg, 1024), 2, 25);
  TaccRequest large = ImageRequest(OpaqueImage(MimeType::kJpeg, 102400), 2, 25);
  EXPECT_GT(distiller.EstimateCost(large), 10 * distiller.EstimateCost(small));
}

TEST(JpegDistillerTest, CostIsDeterministicPerUrlButVariesAcrossUrls) {
  JpegDistiller distiller;
  TaccRequest a = ImageRequest(OpaqueImage(MimeType::kJpeg, 10000), 2, 25);
  EXPECT_EQ(distiller.EstimateCost(a), distiller.EstimateCost(a));
  TaccRequest b = a;
  b.url = "http://elsewhere/pic.jpg";
  EXPECT_NE(distiller.EstimateCost(a), distiller.EstimateCost(b));
}

// ---------- GIF distiller -------------------------------------------------------------

TEST(GifDistillerTest, ConvertsGifToJpegAndShrinks) {
  GifDistiller distiller;
  ContentPtr original = RealGif(120, 90);
  TaccResult result = distiller.Process(ImageRequest(original, 2, 25));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output->mime, MimeType::kJpeg);  // GIF->JPEG conversion (§3.1.6).
  EXPECT_TRUE(IsJpeg(result.output->bytes()));
  EXPECT_LT(result.output->size(), original->size() / 3);
}

TEST(GifDistillerTest, GifCostSlopeIsSteeperThanJpeg) {
  // Fig. 7 measured ~8 ms/KB for GIF; the JPEG path is cheaper.
  GifDistiller gif;
  JpegDistiller jpeg;
  TaccRequest g = ImageRequest(OpaqueImage(MimeType::kGif, 20480), 2, 25);
  TaccRequest j = ImageRequest(OpaqueImage(MimeType::kJpeg, 20480), 2, 25);
  j.url = g.url;  // Same cost-noise draw.
  EXPECT_GT(gif.EstimateCost(g), jpeg.EstimateCost(j));
}

// ---------- HTML distiller -------------------------------------------------------------

TEST(HtmlDistillerTest, MungesUnderProfileControl) {
  HtmlDistiller distiller;
  std::string page = "<html><body><img src=\"http://a/pic.gif\"><p>text</p></body></html>";
  TaccRequest request;
  request.url = "http://a/page.html";
  request.inputs.push_back(Content::Make(
      request.url, MimeType::kHtml, std::vector<uint8_t>(page.begin(), page.end())));
  request.profile.Set("quality", "low");
  TaccResult result = distiller.Process(request);
  ASSERT_TRUE(result.status.ok());
  std::string munged(result.output->bytes().begin(), result.output->bytes().end());
  EXPECT_NE(munged.find("transend-toolbar"), std::string::npos);
  EXPECT_NE(munged.find("q=low"), std::string::npos);  // Prefs drive the rewrite.
  EXPECT_NE(munged.find("[original]"), std::string::npos);
}

TEST(HtmlDistillerTest, ProfileCanDisableToolbar) {
  HtmlDistiller distiller;
  std::string page = "<html><body><p>x</p></body></html>";
  TaccRequest request;
  request.url = "http://a/p.html";
  request.inputs.push_back(Content::Make(
      request.url, MimeType::kHtml, std::vector<uint8_t>(page.begin(), page.end())));
  request.profile.Set("toolbar", "false");
  TaccResult result = distiller.Process(request);
  ASSERT_TRUE(result.status.ok());
  std::string munged(result.output->bytes().begin(), result.output->bytes().end());
  EXPECT_EQ(munged.find("transend-toolbar"), std::string::npos);
}

// ---------- reduction model & registry ---------------------------------------------------

TEST(ReductionModelTest, MonotoneInScaleAndQuality) {
  EXPECT_LT(ImageReductionRatio(2, 25), ImageReductionRatio(1, 25));
  EXPECT_LT(ImageReductionRatio(2, 25), ImageReductionRatio(2, 75));
  EXPECT_GE(ImageReductionRatio(1, 100), ImageReductionRatio(4, 10));
  EXPECT_GE(ImageReductionRatio(16, 1), 0.01);
  EXPECT_LE(ImageReductionRatio(1, 100), 1.0);
}

TEST(ReductionModelTest, PaperOperatingPoint) {
  // Fig. 3's 10KB -> 1.5KB at scale 2 / quality 25: ratio ~0.15.
  double ratio = ImageReductionRatio(2, 25);
  EXPECT_GT(ratio, 0.05);
  EXPECT_LT(ratio, 0.25);
}

TEST(RegistryIntegrationTest, RegistersAllThreeDistillers) {
  WorkerRegistry registry;
  RegisterTranSendDistillers(&registry);
  EXPECT_TRUE(registry.Has(kJpegDistillerType));
  EXPECT_TRUE(registry.Has(kGifDistillerType));
  EXPECT_TRUE(registry.Has(kHtmlDistillerType));
  EXPECT_EQ(registry.Create(kGifDistillerType)->type(), kGifDistillerType);
}

// ---------- dispatch logic helpers ----------------------------------------------------

TEST(TranSendOptionsTest, RedistillOptionsIsAllJpegWithVariantCachingOff) {
  constexpr int64_t kUrls = 25;
  TranSendOptions options = RedistillOptions(kUrls);
  EXPECT_FALSE(options.logic.cache_distilled);
  EXPECT_EQ(options.universe.url_count, kUrls);
  ContentUniverse universe(options.universe);
  for (int64_t i = 0; i < kUrls; ++i) {
    std::string url = universe.UrlAt(i);
    EXPECT_EQ(universe.MimeOf(url), MimeType::kJpeg) << url;
    EXPECT_NEAR(static_cast<double>(universe.ModeledSize(url)), 10240.0, 2500.0) << url;
  }

  // Everything else is the calibrated default.
  TranSendOptions defaults = DefaultTranSendOptions();
  EXPECT_EQ(options.logic.distill_threshold_bytes, defaults.logic.distill_threshold_bytes);
  EXPECT_EQ(options.jpeg_distill_per_kb, defaults.jpeg_distill_per_kb);
  EXPECT_EQ(options.universe.seed, defaults.universe.seed);
  EXPECT_EQ(options.universe.real_image_max_bytes, defaults.universe.real_image_max_bytes);
  EXPECT_DOUBLE_EQ(options.universe.zipf_skew, defaults.universe.zipf_skew);
  EXPECT_DOUBLE_EQ(options.sns.spawn_threshold_h, defaults.sns.spawn_threshold_h);
  EXPECT_EQ(options.topology.front_ends, defaults.topology.front_ends);
  EXPECT_EQ(options.topology.cache_nodes, defaults.topology.cache_nodes);
  EXPECT_EQ(options.topology.worker_pool_nodes, defaults.topology.worker_pool_nodes);
  EXPECT_EQ(options.topology.with_origin, defaults.topology.with_origin);
  EXPECT_EQ(options.topology.san.tcp_setup_cost, defaults.topology.san.tcp_setup_cost);
  EXPECT_EQ(options.topology.fe_link->per_message_overhead,
            defaults.topology.fe_link->per_message_overhead);
  EXPECT_DOUBLE_EQ(options.topology.origin_link->bandwidth_bps,
                   defaults.topology.origin_link->bandwidth_bps);
}

TEST(TranSendLogicTest, CacheKeysIncludePreferences) {
  EXPECT_EQ(TranSendLogic::OriginalKey("http://a/x.gif"), "http://a/x.gif|orig");
  EXPECT_EQ(TranSendLogic::VariantKey("http://a/x.gif", "low"),
            "http://a/x.gif|distilled|low");
  EXPECT_NE(TranSendLogic::VariantKey("u", "low"), TranSendLogic::VariantKey("u", "high"));
}

TEST(TranSendLogicTest, QualityLabelsMapToDistillerArgs) {
  auto low = TranSendLogicConfig::ArgsForQuality("low");
  EXPECT_EQ(low[kArgScale], "4");
  EXPECT_EQ(low[kArgQuality], "10");
  auto med = TranSendLogicConfig::ArgsForQuality("med");
  EXPECT_EQ(med[kArgScale], "2");
  EXPECT_EQ(med[kArgQuality], "25");  // Fig. 3's operating point.
  auto high = TranSendLogicConfig::ArgsForQuality("high");
  EXPECT_EQ(high[kArgScale], "1");
  auto unknown = TranSendLogicConfig::ArgsForQuality("bogus");
  EXPECT_EQ(unknown[kArgScale], "2");  // Defaults to "med".
}

// End-to-end distillation through the local pipeline runner on real universe
// content (the TACC composition path without the cluster).
TEST(TranSendLogicTest, LocalPipelineDistillsRealUniverseImage) {
  ContentUniverseConfig config;
  config.url_count = 500;
  config.real_image_max_bytes = 30000;
  ContentUniverse universe(config);
  WorkerRegistry registry;
  RegisterTranSendDistillers(&registry);

  for (int i = 0; i < 500; ++i) {
    std::string url = universe.UrlAt(i);
    if (universe.MimeOf(url) != MimeType::kGif) {
      continue;
    }
    ContentPtr content = universe.GetContent(url);
    if (!IsGif(content->bytes()) || content->size() < 2048) {
      continue;
    }
    TaccRequest request;
    request.url = url;
    request.inputs.push_back(content);
    TaccResult result = RunPipelineLocally(
        registry, PipelineSpec::Single(kGifDistillerType, {{kArgScale, "2"}, {kArgQuality, "25"}}),
        request);
    ASSERT_TRUE(result.status.ok());
    EXPECT_LT(result.output->size(), content->size());
    return;
  }
  GTEST_SKIP() << "no real GIF above threshold in sample";
}

}  // namespace
}  // namespace sns

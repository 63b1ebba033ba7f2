#include "src/services/transend/distillers.h"

#include <algorithm>
#include <cmath>

#include "src/content/gif_codec.h"
#include "src/content/html.h"
#include "src/content/image.h"
#include "src/content/jpeg_codec.h"
#include "src/util/strings.h"

namespace sns {

namespace {

constexpr int64_t kMinDistilledBytes = 160;

// Opaque content transform: produce undecodable bytes of the modeled size.
ContentPtr OpaqueOutput(const TaccRequest& request, MimeType mime, int64_t out_size) {
  std::vector<uint8_t> bytes(static_cast<size_t>(std::max(out_size, kMinDistilledBytes)));
  // xorshift64*, each output word written out as 8 little-endian bytes.
  uint64_t h = Fnv1a(request.url) * 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < bytes.size();) {
    h ^= h >> 12;
    h ^= h << 25;
    h ^= h >> 27;
    uint64_t word = h * 0x2545F4914F6CDD1DULL;
    for (int k = 0; k < 8 && i < bytes.size(); ++k, ++i, word >>= 8) {
      bytes[i] = static_cast<uint8_t>(word);
    }
  }
  if (bytes.size() >= 2) {
    bytes[0] = 'X';
    bytes[1] = 'X';
  }
  return Content::Make(request.url, mime, std::move(bytes));
}

SimDuration NoisyCost(SimDuration fixed, SimDuration per_kb, int64_t bytes, double sigma,
                      const std::string& url) {
  double kb = static_cast<double>(bytes) / 1024.0;
  double base = static_cast<double>(fixed) + static_cast<double>(per_kb) * kb;
  return static_cast<SimDuration>(base * CostNoiseFactor(url, sigma));
}

}  // namespace

double ImageReductionRatio(int scale, int quality) {
  scale = std::max(scale, 1);
  quality = std::clamp(quality, 1, 100);
  // quality term: ~0.6 at q100 falling to ~0.12 at q1; scale term: 1/scale.
  double quality_term = 0.10 + 0.50 * (static_cast<double>(quality) / 100.0);
  double ratio = quality_term / static_cast<double>(scale);
  return std::clamp(ratio, 0.01, 1.0);
}

double CostNoiseFactor(const std::string& url, double sigma) {
  // A deterministic standard-normal-ish draw from the URL hash (sum of 4 uniforms,
  // variance 1/3 each -> scale by sqrt(3)/2 ... close enough for jitter purposes).
  uint64_t h = Fnv1a(url) ^ 0xD15717;
  double sum = 0;
  for (int i = 0; i < 4; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    sum += static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  double z = (sum - 2.0) * 1.732;  // ~N(0,1)
  return std::exp(std::clamp(z, -2.0, 2.0) * sigma);
}

// ---------- JPEG distiller --------------------------------------------------------

TaccResult JpegDistiller::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("distill-jpeg: no input"));
  }
  const ContentPtr& in = request.input();
  int scale = static_cast<int>(request.ArgIntOr(kArgScale, 2));
  int quality = static_cast<int>(request.ArgIntOr(kArgQuality, 25));
  if (IsJpeg(in->bytes)) {
    auto decoded = JpegDecode(in->bytes);
    if (!decoded.ok()) {
      return TaccResult::Fail(decoded.status());
    }
    RasterImage image = std::move(decoded).value();
    if (scale > 1) {
      image = BoxDownscale(image, scale);
    }
    image = LowPassFilter(image, 1);
    return TaccResult::Ok(
        Content::Make(request.url, MimeType::kJpeg, JpegEncode(image, quality)));
  }
  // Opaque benchmark content: apply the calibrated reduction model.
  int64_t out = static_cast<int64_t>(static_cast<double>(in->size()) *
                                     ImageReductionRatio(scale, quality));
  return TaccResult::Ok(OpaqueOutput(request, MimeType::kJpeg, out));
}

SimDuration JpegDistiller::EstimateCost(const TaccRequest& request) const {
  return NoisyCost(cost_.jpeg_fixed, cost_.jpeg_per_kb, request.TotalInputBytes(),
                   cost_.noise_sigma, request.url);
}

// ---------- GIF distiller ------------------------------------------------------------

TaccResult GifDistiller::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("distill-gif: no input"));
  }
  const ContentPtr& in = request.input();
  int scale = static_cast<int>(request.ArgIntOr(kArgScale, 2));
  int quality = static_cast<int>(request.ArgIntOr(kArgQuality, 25));
  if (IsGif(in->bytes)) {
    // GIF -> JPEG conversion followed by JPEG degradation (§3.1.6).
    auto decoded = GifDecode(in->bytes);
    if (!decoded.ok()) {
      return TaccResult::Fail(decoded.status());
    }
    RasterImage image = std::move(decoded).value();
    if (scale > 1) {
      image = BoxDownscale(image, scale);
    }
    return TaccResult::Ok(
        Content::Make(request.url, MimeType::kJpeg, JpegEncode(image, quality)));
  }
  // GIF->JPEG conversion itself shrinks photos ~3x before quality reduction.
  int64_t out = static_cast<int64_t>(static_cast<double>(in->size()) * 0.55 *
                                     ImageReductionRatio(scale, quality));
  return TaccResult::Ok(OpaqueOutput(request, MimeType::kJpeg, out));
}

SimDuration GifDistiller::EstimateCost(const TaccRequest& request) const {
  return NoisyCost(cost_.gif_fixed, cost_.gif_per_kb, request.TotalInputBytes(),
                   cost_.noise_sigma, request.url);
}

// ---------- HTML distiller (the munger) -------------------------------------------------

TaccResult HtmlDistiller::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("munge-html: no input"));
  }
  const ContentPtr& in = request.input();
  std::string html(in->bytes.begin(), in->bytes.end());
  MungeOptions options;
  // The user interface for TranSend is controlled by the HTML distiller, under the
  // direction of the user preferences from the front end (§3.1.6).
  options.add_toolbar = request.profile.GetBoolOr("toolbar", true);
  options.add_original_links = request.profile.GetBoolOr("original_links", true);
  options.proxy_prefix =
      "http://transend.berkeley.edu/distill?q=" + request.profile.GetOr("quality", "med") +
      "&src=";
  std::string munged = MungeHtml(html, options);
  std::vector<uint8_t> bytes(munged.begin(), munged.end());
  return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(bytes)));
}

SimDuration HtmlDistiller::EstimateCost(const TaccRequest& request) const {
  return NoisyCost(cost_.html_fixed, cost_.html_per_kb, request.TotalInputBytes(),
                   cost_.noise_sigma, request.url);
}

void RegisterTranSendDistillers(WorkerRegistry* registry, const DistillerCostConfig& cost) {
  registry->Register(kJpegDistillerType,
                     [cost] { return std::make_unique<JpegDistiller>(cost); });
  registry->Register(kGifDistillerType,
                     [cost] { return std::make_unique<GifDistiller>(cost); });
  registry->Register(kHtmlDistillerType,
                     [cost] { return std::make_unique<HtmlDistiller>(cost); });
}

}  // namespace sns

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

// Fig. 7: ~8 ms per input KB for the GIF distiller (decode + scale + re-encode).
constexpr SimDuration kGifFixed = Milliseconds(4);
constexpr SimDuration kGifPerKb = Milliseconds(8);
// Fixed part of the JPEG cost (the slope is kJpegDistillPerKb).
constexpr SimDuration kJpegFixed = Milliseconds(2);
// "the HTML distiller is far more efficient".
constexpr SimDuration kHtmlFixed = Milliseconds(1);
constexpr SimDuration kHtmlPerKb = Milliseconds(0.8);
// Lognormal sigma of the per-item cost noise (Fig. 7 shows large variance).
constexpr double kNoiseSigma = 0.25;

// Opaque content transform: undecodable bytes of the modeled size, synthesized
// only if something reads them.
ContentPtr OpaqueOutput(const TaccRequest& request, MimeType mime, int64_t out_size) {
  return Content::MakeOpaque(request.url, mime, Content::Filler::kDistilled, Fnv1a(request.url),
                             std::max(out_size, kMinDistilledBytes));
}

SimDuration NoisyCost(SimDuration fixed, SimDuration per_kb, const TaccRequest& request) {
  double kb = static_cast<double>(request.TotalInputBytes()) / 1024.0;
  double base = static_cast<double>(fixed) + static_cast<double>(per_kb) * kb;
  return static_cast<SimDuration>(base * CostNoiseFactor(request.url, kNoiseSigma));
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
  if (IsJpeg(*in)) {
    auto decoded = JpegDecode(in->bytes());
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
  return NoisyCost(kJpegFixed, per_kb_, request);
}

// ---------- GIF distiller ------------------------------------------------------------

TaccResult GifDistiller::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("distill-gif: no input"));
  }
  const ContentPtr& in = request.input();
  int scale = static_cast<int>(request.ArgIntOr(kArgScale, 2));
  int quality = static_cast<int>(request.ArgIntOr(kArgQuality, 25));
  if (IsGif(*in)) {
    // GIF -> JPEG conversion followed by JPEG degradation (§3.1.6).
    auto decoded = GifDecode(in->bytes());
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
  return NoisyCost(kGifFixed, kGifPerKb, request);
}

// ---------- HTML distiller (the munger) -------------------------------------------------

TaccResult HtmlDistiller::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("munge-html: no input"));
  }
  const ContentPtr& in = request.input();
  const std::vector<uint8_t>& page = in->bytes();
  std::string html(page.begin(), page.end());
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
  return NoisyCost(kHtmlFixed, kHtmlPerKb, request);
}

void RegisterTranSendDistillers(WorkerRegistry* registry, SimDuration jpeg_per_kb) {
  registry->Register(kJpegDistillerType,
                     [jpeg_per_kb] { return std::make_unique<JpegDistiller>(jpeg_per_kb); });
  registry->Register(kGifDistillerType, [] { return std::make_unique<GifDistiller>(); });
  registry->Register(kHtmlDistillerType, [] { return std::make_unique<HtmlDistiller>(); });
}

}  // namespace sns

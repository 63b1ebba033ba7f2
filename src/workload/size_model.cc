#include "src/workload/size_model.h"

#include <algorithm>

namespace sns {
namespace {

// Lognormal parameters, chosen so the means match the paper's.
constexpr double kHtmlMu = 8.043;  // mean ~5131 B
constexpr double kHtmlSigma = 1.0;
constexpr double kGifIconFraction = 0.55;  // The sub-1KB plateau.
constexpr double kGifIconMu = 5.678;       // mean ~350 B
constexpr double kGifIconSigma = 0.6;
constexpr double kGifPhotoMu = 8.56;       // mean ~7190 B; overall GIF mean ~3428 B
constexpr double kGifPhotoSigma = 0.8;
constexpr double kOtherMu = 7.6;
constexpr double kOtherSigma = 1.2;

}  // namespace

MimeType SizeModel::SampleMime(Rng* rng) const {
  double u = rng->NextDouble();
  if (u < config_.gif_fraction) {
    return MimeType::kGif;
  }
  u -= config_.gif_fraction;
  if (u < config_.html_fraction) {
    return MimeType::kHtml;
  }
  u -= config_.html_fraction;
  if (u < config_.jpeg_fraction) {
    return MimeType::kJpeg;
  }
  return MimeType::kOther;
}

int64_t SizeModel::SampleSize(MimeType mime, Rng* rng) const {
  switch (mime) {
    case MimeType::kHtml:
      return Clamp(rng->LogNormal(kHtmlMu, kHtmlSigma));
    case MimeType::kGif:
      if (rng->NextDouble() < kGifIconFraction) {
        return Clamp(rng->LogNormal(kGifIconMu, kGifIconSigma));
      }
      return Clamp(rng->LogNormal(kGifPhotoMu, kGifPhotoSigma));
    case MimeType::kJpeg:
      return Clamp(rng->LogNormal(config_.jpeg_mu, config_.jpeg_sigma));
    case MimeType::kOther:
      return Clamp(rng->LogNormal(kOtherMu, kOtherSigma));
  }
  return kMinContentBytes;
}

bool SizeModel::SampleErrorPage(MimeType mime, Rng* rng) const {
  if (mime != MimeType::kGif && mime != MimeType::kJpeg) {
    return false;
  }
  return rng->NextDouble() < config_.error_page_fraction;
}

int64_t SizeModel::Clamp(double bytes) {
  auto b = static_cast<int64_t>(bytes);
  return std::clamp(b, kMinContentBytes, kMaxContentBytes);
}

}  // namespace sns

// Content-length distributions calibrated to the paper's trace statistics (Fig. 5).
//
// From §4.1: GIF, HTML, JPEG are 50%/22%/18% of requests; average content lengths
// are HTML 5131 B, GIF 3428 B, JPEG 12070 B. The GIF distribution is bimodal with a
// plateau below 1 KB (icons, bullets) and one above (photos, cartoons) — the 1 KB
// distillation threshold "exactly separates these two classes". JPEGs fall off
// rapidly below 1 KB. A small fraction of "image" URLs are actually HTML error
// messages mistaken for images by extension (the spikes at the left of Fig. 5).

#ifndef SRC_WORKLOAD_SIZE_MODEL_H_
#define SRC_WORKLOAD_SIZE_MODEL_H_

#include <cstdint>

#include "src/content/mime.h"
#include "src/util/rng.h"

namespace sns {

// Error pages in disguise are uniform in [kErrorPageMinBytes, kErrorPageMaxBytes].
inline constexpr int64_t kErrorPageMinBytes = 180;
inline constexpr int64_t kErrorPageMaxBytes = 420;

// Every sampled content length is clamped to [kMinContentBytes, kMaxContentBytes].
inline constexpr int64_t kMinContentBytes = 24;
inline constexpr int64_t kMaxContentBytes = 1000000;  // Fig. 5's x-axis tops out at 1e6.

struct SizeModelConfig {
  // Request mix (§4.1). The remainder is "other" (passed through undistilled).
  double gif_fraction = 0.50;
  double html_fraction = 0.22;
  double jpeg_fraction = 0.18;

  // JPEG lognormal, chosen so the mean matches the paper's; the other types'
  // parameters are fixed in size_model.cc.
  double jpeg_mu = 9.037;           // mean ~12070 B
  double jpeg_sigma = 0.85;

  // Fraction of image URLs that are really error pages (Fig. 5's left spikes).
  double error_page_fraction = 0.02;
};

class SizeModel {
 public:
  explicit SizeModel(const SizeModelConfig& config = SizeModelConfig{}) : config_(config) {}

  // Draws a MIME type according to the request mix.
  MimeType SampleMime(Rng* rng) const;

  // Draws an encoded content length for the given type.
  int64_t SampleSize(MimeType mime, Rng* rng) const;

  // True if this particular image URL should be an error page in disguise.
  bool SampleErrorPage(MimeType mime, Rng* rng) const;

 private:
  static int64_t Clamp(double bytes);

  SizeModelConfig config_;
};

}  // namespace sns

#endif  // SRC_WORKLOAD_SIZE_MODEL_H_

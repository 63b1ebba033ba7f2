// TranSend's datatype-specific distillers (paper §3.1.6).
//
// Three parameterizable TACC workers:
//   - distill-jpeg: scaling and low-pass filtering of JPEG images (re-encoded at a
//     lower quality).
//   - distill-gif:  GIF-to-JPEG conversion followed by JPEG degradation (the paper
//     chose this "after discovering that the JPEG representation is smaller and
//     faster to operate on for most images").
//   - munge-html:   marks up inline image references with distillation preferences,
//     adds [original] links next to distilled images, and prepends the preferences
//     toolbar.
//
// Each distiller transforms real bytes when the input is decodable (SGIF/SJPG/HTML)
// and falls back to a calibrated size-reduction model for opaque benchmark content.
// Simulated CPU cost follows Fig. 7: roughly linear in input size (the GIF distiller
// measured ~8 ms/KB), with item-to-item variance.

#ifndef SRC_SERVICES_TRANSEND_DISTILLERS_H_
#define SRC_SERVICES_TRANSEND_DISTILLERS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/tacc/registry.h"
#include "src/tacc/worker.h"

namespace sns {

// Shared argument names.
//   "scale":   integer downscale factor (>= 1).
//   "quality": target JPEG quality (1..100).
inline constexpr char kArgScale[] = "scale";
inline constexpr char kArgQuality[] = "quality";

inline constexpr char kJpegDistillerType[] = "distill-jpeg";
inline constexpr char kGifDistillerType[] = "distill-gif";
inline constexpr char kHtmlDistillerType[] = "munge-html";

// Per-input-KB cost of the JPEG distiller, the one distiller cost a caller
// varies (Fig. 8 gives it the GIF slope). The JPEG path is cheaper than the GIF
// one (no palette work); calibrated so a distiller sustains ~23 requests/second
// on the ~10 KB images of the §4.6 scalability experiment.
inline constexpr SimDuration kJpegDistillPerKb = Milliseconds(4);

// The bytes of opaque distiller output (benchmark content that does not
// decode): an xorshift64* stream seeded by `url`, each word written as 8
// little-endian bytes, the n % 8 tail bytes being the low bytes of one more
// word. Fills out[0, n).
void FillOpaqueBytes(const std::string& url, uint8_t* out, size_t n);

class JpegDistiller : public TaccWorker {
 public:
  explicit JpegDistiller(SimDuration per_kb = kJpegDistillPerKb) : per_kb_(per_kb) {}
  std::string type() const override { return kJpegDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;

 private:
  SimDuration per_kb_;
};

class GifDistiller : public TaccWorker {
 public:
  std::string type() const override { return kGifDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;
};

class HtmlDistiller : public TaccWorker {
 public:
  std::string type() const override { return kHtmlDistillerType; }
  TaccResult Process(const TaccRequest& request) override;
  SimDuration EstimateCost(const TaccRequest& request) const override;
};

// Registers all three distiller factories.
void RegisterTranSendDistillers(WorkerRegistry* registry,
                                SimDuration jpeg_per_kb = kJpegDistillPerKb);

// Expected output/input size ratio for image distillation — used for opaque
// content and exposed for tests. Calibrated to the paper's example: scale 2 +
// quality 25 turns a 10 KB JPEG into ~1.5 KB (Fig. 3).
double ImageReductionRatio(int scale, int quality);

// Deterministic per-item cost jitter in [e^-2s, e^2s], keyed by URL.
double CostNoiseFactor(const std::string& url, double sigma);

}  // namespace sns

#endif  // SRC_SERVICES_TRANSEND_DISTILLERS_H_

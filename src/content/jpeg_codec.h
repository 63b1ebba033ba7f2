// SJPG: a JPEG-like lossy image codec — YCbCr conversion, 4:2:0 chroma
// subsampling, 8x8 block DCT, quality-scaled quantization, zigzag + exp-Golomb
// entropy coding.
//
// This is the real transform pipeline behind TranSend's "scaling and low-pass
// filtering of JPEG images" distiller (paper §3.1.6): re-encoding at a lower quality
// genuinely shrinks the byte stream, reproducing Fig. 3's 10 KB -> 1.5 KB example
// class of reductions.

#ifndef SRC_CONTENT_JPEG_CODEC_H_
#define SRC_CONTENT_JPEG_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/content/content.h"
#include "src/content/image.h"
#include "src/util/status.h"

namespace sns {

// quality in [1, 100]; lower = smaller and blurrier.
std::vector<uint8_t> JpegEncode(const RasterImage& image, int quality);

Result<RasterImage> JpegDecode(const std::vector<uint8_t>& bytes);

// Reads just the quality field from an encoded image (used by the distiller to skip
// re-encoding content that is already below the target quality).
Result<int> JpegQualityOf(const std::vector<uint8_t>& bytes);

bool IsJpeg(const std::vector<uint8_t>& bytes);
// The same check on a Content's first bytes; opaque content stays unmaterialized.
bool IsJpeg(const Content& content);

}  // namespace sns

#endif  // SRC_CONTENT_JPEG_CODEC_H_

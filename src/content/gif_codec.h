// SGIF: a GIF-like image codec — palette quantization + variable-width LZW.
//
// Stands in for the GIF files in the trace (50% of requests, paper §4.1). The format
// keeps GIF's essential properties: lossless given the palette, great on flat-color
// icons, mediocre on photos — which is why TranSend's GIF distiller converts photos
// to JPEG ("the JPEG representation is smaller and faster to operate on for most
// images", §3.1.6 footnote).

#ifndef SRC_CONTENT_GIF_CODEC_H_
#define SRC_CONTENT_GIF_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/content/content.h"
#include "src/content/image.h"
#include "src/util/status.h"

namespace sns {

// Encodes with a median-cut palette of at most `palette_colors` (2..256).
std::vector<uint8_t> GifEncode(const RasterImage& image, int palette_colors = 256);

Result<RasterImage> GifDecode(const std::vector<uint8_t>& bytes);

// True if `bytes` starts with the SGIF magic.
bool IsGif(const std::vector<uint8_t>& bytes);
// The same check on a Content's first bytes; opaque content stays unmaterialized.
bool IsGif(const Content& content);

}  // namespace sns

#endif  // SRC_CONTENT_GIF_CODEC_H_

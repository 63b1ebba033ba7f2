#include "src/content/jpeg_codec.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/content/bitstream.h"

namespace sns {

namespace {

constexpr uint8_t kMagic0 = 'S';
constexpr uint8_t kMagic1 = 'J';
constexpr int kBlock = 8;

// Standard JPEG Annex K luminance/chrominance quantization tables.
constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

// Zigzag scan order for an 8x8 block.
constexpr std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// libjpeg's quality-to-scale mapping.
int QualityScale(int quality) {
  quality = std::clamp(quality, 1, 100);
  return quality < 50 ? 5000 / quality : 200 - quality * 2;
}

std::array<int, 64> ScaledTable(const std::array<int, 64>& base, int quality) {
  int scale = QualityScale(quality);
  std::array<int, 64> out{};
  for (int i = 0; i < 64; ++i) {
    out[i] = std::clamp((base[i] * scale + 50) / 100, 1, 255);
  }
  return out;
}

// Naive 2-D DCT-II / DCT-III on an 8x8 block. O(64*16) with separable passes.
void ForwardDct(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  static double cos_table[kBlock][kBlock];
  static bool init = false;
  if (!init) {
    for (int x = 0; x < kBlock; ++x) {
      for (int u = 0; u < kBlock; ++u) {
        cos_table[x][u] = std::cos((2 * x + 1) * u * M_PI / 16.0);
      }
    }
    init = true;
  }
  double tmp[kBlock][kBlock];
  // Rows.
  for (int y = 0; y < kBlock; ++y) {
    for (int u = 0; u < kBlock; ++u) {
      double sum = 0;
      for (int x = 0; x < kBlock; ++x) {
        sum += in[y][x] * cos_table[x][u];
      }
      tmp[y][u] = sum * (u == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock));
    }
  }
  // Columns.
  for (int u = 0; u < kBlock; ++u) {
    for (int v = 0; v < kBlock; ++v) {
      double sum = 0;
      for (int y = 0; y < kBlock; ++y) {
        sum += tmp[y][u] * cos_table[y][v];
      }
      out[v][u] = sum * (v == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock));
    }
  }
}

void InverseDct(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  static double cos_table[kBlock][kBlock];
  static bool init = false;
  if (!init) {
    for (int x = 0; x < kBlock; ++x) {
      for (int u = 0; u < kBlock; ++u) {
        cos_table[x][u] = std::cos((2 * x + 1) * u * M_PI / 16.0);
      }
    }
    init = true;
  }
  double tmp[kBlock][kBlock];
  // Columns first (inverse of the forward order).
  for (int u = 0; u < kBlock; ++u) {
    for (int y = 0; y < kBlock; ++y) {
      double sum = 0;
      for (int v = 0; v < kBlock; ++v) {
        double c = v == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
        sum += c * in[v][u] * cos_table[y][v];
      }
      tmp[y][u] = sum;
    }
  }
  // Rows.
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      double sum = 0;
      for (int u = 0; u < kBlock; ++u) {
        double c = u == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
        sum += c * tmp[y][u] * cos_table[x][u];
      }
      out[y][x] = sum;
    }
  }
}

struct Plane {
  int width = 0;
  int height = 0;
  std::vector<double> samples;  // Centered at 0 (sample - 128).

  double at(int x, int y) const {
    x = std::clamp(x, 0, width - 1);
    y = std::clamp(y, 0, height - 1);
    return samples[static_cast<size_t>(y) * static_cast<size_t>(width) + static_cast<size_t>(x)];
  }
  void set(int x, int y, double v) {
    samples[static_cast<size_t>(y) * static_cast<size_t>(width) + static_cast<size_t>(x)] = v;
  }
};

// Encodes one plane: per-block DCT, quantize, zigzag, DC-delta + (run, level) AC
// pairs with an end-of-block sentinel (run == 63).
void EncodePlane(const Plane& plane, const std::array<int, 64>& quant, BitWriter* out) {
  int blocks_x = (plane.width + kBlock - 1) / kBlock;
  int blocks_y = (plane.height + kBlock - 1) / kBlock;
  int prev_dc = 0;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      double block[kBlock][kBlock];
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          block[y][x] = plane.at(bx * kBlock + x, by * kBlock + y);
        }
      }
      double freq[kBlock][kBlock];
      ForwardDct(block, freq);
      int coeffs[64];
      for (int i = 0; i < 64; ++i) {
        int pos = kZigzag[i];
        double value = freq[pos / kBlock][pos % kBlock];
        coeffs[i] = static_cast<int>(std::lround(value / quant[i]));
      }
      out->WriteSignedGolomb(coeffs[0] - prev_dc);
      prev_dc = coeffs[0];
      int run = 0;
      for (int i = 1; i < 64; ++i) {
        if (coeffs[i] == 0) {
          ++run;
          continue;
        }
        out->WriteGolomb(static_cast<uint32_t>(run));
        out->WriteSignedGolomb(coeffs[i]);
        run = 0;
      }
      out->WriteGolomb(63);  // EOB (valid in-pair runs are <= 62).
    }
  }
}

Status DecodePlane(BitReader* in, const std::array<int, 64>& quant, Plane* plane) {
  int blocks_x = (plane->width + kBlock - 1) / kBlock;
  int blocks_y = (plane->height + kBlock - 1) / kBlock;
  int prev_dc = 0;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      int coeffs[64] = {0};
      int dc_delta = in->ReadSignedGolomb();
      prev_dc += dc_delta;
      coeffs[0] = prev_dc;
      // The encoder always terminates a block with the EOB token (run == 63), even
      // when the final zigzag position held a nonzero coefficient — so the decoder
      // must keep reading until it consumes that token.
      int i = 1;
      for (;;) {
        uint32_t run = in->ReadGolomb();
        if (in->error()) {
          return CorruptionError("SJPG stream truncated");
        }
        if (run == 63) {
          break;  // EOB.
        }
        i += static_cast<int>(run);
        if (i >= 64) {
          return CorruptionError("SJPG run overflows block");
        }
        coeffs[i] = in->ReadSignedGolomb();
        ++i;
      }
      double freq[kBlock][kBlock];
      for (int k = 0; k < 64; ++k) {
        int pos = kZigzag[k];
        freq[pos / kBlock][pos % kBlock] = static_cast<double>(coeffs[k]) * quant[k];
      }
      double block[kBlock][kBlock];
      InverseDct(freq, block);
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          int px = bx * kBlock + x;
          int py = by * kBlock + y;
          if (px < plane->width && py < plane->height) {
            plane->set(px, py, block[y][x]);
          }
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> JpegEncode(const RasterImage& image, int quality) {
  quality = std::clamp(quality, 1, 100);
  int w = image.width();
  int h = image.height();

  // RGB -> YCbCr (BT.601), center at zero.
  Plane y_plane{w, h, std::vector<double>(static_cast<size_t>(w) * h)};
  Plane cb_full{w, h, std::vector<double>(static_cast<size_t>(w) * h)};
  Plane cr_full{w, h, std::vector<double>(static_cast<size_t>(w) * h)};
  for (int yy = 0; yy < h; ++yy) {
    for (int xx = 0; xx < w; ++xx) {
      const Pixel& p = image.at(xx, yy);
      double r = p.r;
      double g = p.g;
      double b = p.b;
      y_plane.set(xx, yy, 0.299 * r + 0.587 * g + 0.114 * b - 128.0);
      cb_full.set(xx, yy, -0.168736 * r - 0.331264 * g + 0.5 * b);
      cr_full.set(xx, yy, 0.5 * r - 0.418688 * g - 0.081312 * b);
    }
  }
  // 4:2:0 chroma subsampling.
  int cw = (w + 1) / 2;
  int ch = (h + 1) / 2;
  Plane cb{cw, ch, std::vector<double>(static_cast<size_t>(cw) * ch)};
  Plane cr{cw, ch, std::vector<double>(static_cast<size_t>(cw) * ch)};
  for (int yy = 0; yy < ch; ++yy) {
    for (int xx = 0; xx < cw; ++xx) {
      double cb_sum = 0;
      double cr_sum = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          cb_sum += cb_full.at(xx * 2 + dx, yy * 2 + dy);
          cr_sum += cr_full.at(xx * 2 + dx, yy * 2 + dy);
        }
      }
      cb.set(xx, yy, cb_sum / 4.0);
      cr.set(xx, yy, cr_sum / 4.0);
    }
  }

  BitWriter out;
  out.WriteByte(kMagic0);
  out.WriteByte(kMagic1);
  out.WriteU16(static_cast<uint16_t>(w));
  out.WriteU16(static_cast<uint16_t>(h));
  out.WriteByte(static_cast<uint8_t>(quality));
  std::array<int, 64> luma = ScaledTable(kLumaQuant, quality);
  std::array<int, 64> chroma = ScaledTable(kChromaQuant, quality);
  EncodePlane(y_plane, luma, &out);
  EncodePlane(cb, chroma, &out);
  EncodePlane(cr, chroma, &out);
  return out.Finish();
}

Result<RasterImage> JpegDecode(const std::vector<uint8_t>& bytes) {
  if (!IsJpeg(bytes)) {
    return CorruptionError("not an SJPG image");
  }
  BitReader in(bytes.data(), bytes.size());
  in.ReadByte();
  in.ReadByte();
  int w = in.ReadU16();
  int h = in.ReadU16();
  int quality = in.ReadByte();
  // Reject implausible headers before allocating plane buffers (a corrupt header
  // must not turn into a multi-gigabyte allocation), and require a minimum bit
  // budget: even an all-zero image needs ~2 bits per 8x8 block per plane.
  constexpr int64_t kMaxPixels = int64_t{1} << 24;
  if (w <= 0 || h <= 0 || in.error() ||
      static_cast<int64_t>(w) * static_cast<int64_t>(h) > kMaxPixels) {
    return CorruptionError("bad SJPG header");
  }
  int64_t luma_blocks =
      (static_cast<int64_t>(w) + 7) / 8 * ((static_cast<int64_t>(h) + 7) / 8);
  if (static_cast<int64_t>(bytes.size()) * 8 < luma_blocks * 2) {
    return CorruptionError("SJPG stream too short for dimensions");
  }
  std::array<int, 64> luma = ScaledTable(kLumaQuant, quality);
  std::array<int, 64> chroma = ScaledTable(kChromaQuant, quality);
  Plane y_plane{w, h, std::vector<double>(static_cast<size_t>(w) * h)};
  int cw = (w + 1) / 2;
  int ch = (h + 1) / 2;
  Plane cb{cw, ch, std::vector<double>(static_cast<size_t>(cw) * ch)};
  Plane cr{cw, ch, std::vector<double>(static_cast<size_t>(cw) * ch)};
  Status s = DecodePlane(&in, luma, &y_plane);
  if (!s.ok()) {
    return s;
  }
  s = DecodePlane(&in, chroma, &cb);
  if (!s.ok()) {
    return s;
  }
  s = DecodePlane(&in, chroma, &cr);
  if (!s.ok()) {
    return s;
  }
  RasterImage img(w, h);
  for (int yy = 0; yy < h; ++yy) {
    for (int xx = 0; xx < w; ++xx) {
      double y = y_plane.at(xx, yy) + 128.0;
      double cb_v = cb.at(xx / 2, yy / 2);
      double cr_v = cr.at(xx / 2, yy / 2);
      double r = y + 1.402 * cr_v;
      double g = y - 0.344136 * cb_v - 0.714136 * cr_v;
      double b = y + 1.772 * cb_v;
      img.at(xx, yy) =
          Pixel{static_cast<uint8_t>(std::clamp(static_cast<int>(std::lround(r)), 0, 255)),
                static_cast<uint8_t>(std::clamp(static_cast<int>(std::lround(g)), 0, 255)),
                static_cast<uint8_t>(std::clamp(static_cast<int>(std::lround(b)), 0, 255))};
    }
  }
  return img;
}

Result<int> JpegQualityOf(const std::vector<uint8_t>& bytes) {
  if (!IsJpeg(bytes) || bytes.size() < 7) {
    return CorruptionError("not an SJPG image");
  }
  return static_cast<int>(bytes[6]);
}

bool IsJpeg(const std::vector<uint8_t>& bytes) {
  return bytes.size() > 7 && bytes[0] == kMagic0 && bytes[1] == kMagic1;
}

bool IsJpeg(const Content& content) {
  uint8_t magic[2];
  return content.size() > 7 && content.CopyPrefix(magic, 2) == 2 && magic[0] == kMagic0 &&
         magic[1] == kMagic1;
}

}  // namespace sns

#include "src/content/gif_codec.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "src/content/bitstream.h"

namespace sns {

namespace {

constexpr uint8_t kMagic0 = 'S';
constexpr uint8_t kMagic1 = 'G';
constexpr int kMaxCodeBits = 12;
constexpr int kMaxCodes = 1 << kMaxCodeBits;  // 4096, as in real GIF.

int BitsForPalette(int colors) {
  int bits = 1;
  while ((1 << bits) < colors) {
    ++bits;
  }
  return bits;
}

// LZW with variable code width, clear and end codes, GIF-style.
void LzwEncode(const std::vector<uint8_t>& symbols, int symbol_bits, BitWriter* out) {
  const uint32_t clear_code = 1u << symbol_bits;
  const uint32_t end_code = clear_code + 1;
  uint32_t next_code = end_code + 1;
  int code_bits = symbol_bits + 1;

  // Dictionary: (prefix_code << 8 | symbol) -> code.
  std::unordered_map<uint32_t, uint32_t> dict;
  auto reset = [&] {
    dict.clear();
    next_code = end_code + 1;
    code_bits = symbol_bits + 1;
  };

  out->WriteBits(clear_code, code_bits);
  reset();

  if (symbols.empty()) {
    out->WriteBits(end_code, code_bits);
    return;
  }

  uint32_t prefix = symbols[0];
  for (size_t i = 1; i < symbols.size(); ++i) {
    uint8_t sym = symbols[i];
    uint32_t key = (prefix << 8) | sym;
    auto it = dict.find(key);
    if (it != dict.end()) {
      prefix = it->second;
      continue;
    }
    out->WriteBits(prefix, code_bits);
    if (next_code < kMaxCodes) {
      dict[key] = next_code++;
      if (next_code > (1u << code_bits) && code_bits < kMaxCodeBits) {
        ++code_bits;
      }
    } else {
      out->WriteBits(clear_code, code_bits);
      reset();
    }
    prefix = sym;
  }
  out->WriteBits(prefix, code_bits);
  out->WriteBits(end_code, code_bits);
}

Status LzwDecode(BitReader* in, int symbol_bits, size_t expected_symbols,
                 std::vector<uint8_t>* out) {
  const uint32_t clear_code = 1u << symbol_bits;
  const uint32_t end_code = clear_code + 1;

  // Dictionary entry: (prefix code, appended symbol). Root codes map to themselves.
  std::vector<std::pair<uint32_t, uint8_t>> dict;
  uint32_t next_code = 0;
  int code_bits = 0;
  auto reset = [&] {
    dict.assign(end_code + 1, {0, 0});
    next_code = end_code + 1;
    code_bits = symbol_bits + 1;
  };
  reset();

  auto expand = [&](uint32_t code, std::vector<uint8_t>* dst) -> Status {
    // Walks prefix links; a root code terminates.
    std::vector<uint8_t> reversed;
    while (true) {
      if (code < clear_code) {
        reversed.push_back(static_cast<uint8_t>(code));
        break;
      }
      if (code >= dict.size() || code == clear_code || code == end_code) {
        return CorruptionError("bad LZW code");
      }
      reversed.push_back(dict[code].second);
      code = dict[code].first;
      if (reversed.size() > expected_symbols + 1) {
        return CorruptionError("LZW expansion loop");
      }
    }
    dst->insert(dst->end(), reversed.rbegin(), reversed.rend());
    return Status::Ok();
  };

  auto first_symbol = [&](uint32_t code) -> uint8_t {
    while (code >= clear_code) {
      code = dict[code].first;
    }
    return static_cast<uint8_t>(code);
  };

  uint32_t prev = UINT32_MAX;
  while (out->size() < expected_symbols) {
    uint32_t code = in->ReadBits(code_bits);
    if (in->error()) {
      return CorruptionError("LZW stream truncated");
    }
    if (code == end_code) {
      break;
    }
    if (code == clear_code) {
      reset();
      prev = UINT32_MAX;
      continue;
    }
    if (prev == UINT32_MAX) {
      if (code >= clear_code) {
        return CorruptionError("LZW first code not a root");
      }
      Status s = expand(code, out);
      if (!s.ok()) {
        return s;
      }
      prev = code;
      continue;
    }
    if (code < next_code) {
      Status s = expand(code, out);
      if (!s.ok()) {
        return s;
      }
      if (next_code < kMaxCodes) {
        dict.push_back({prev, first_symbol(code)});
        ++next_code;
      }
    } else if (code == next_code && next_code < kMaxCodes) {
      // The classic KwKwK case.
      dict.push_back({prev, first_symbol(prev)});
      ++next_code;
      Status s = expand(code, out);
      if (!s.ok()) {
        return s;
      }
    } else {
      return CorruptionError("LZW code out of range");
    }
    if (next_code >= (1u << code_bits) && code_bits < kMaxCodeBits) {
      ++code_bits;
    }
    prev = code;
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> GifEncode(const RasterImage& image, int palette_colors) {
  palette_colors = std::clamp(palette_colors, 2, 256);
  std::vector<uint8_t> indices;
  std::vector<Pixel> palette = MedianCutPalette(image, palette_colors, &indices);

  BitWriter out;
  out.WriteByte(kMagic0);
  out.WriteByte(kMagic1);
  out.WriteU16(static_cast<uint16_t>(image.width()));
  out.WriteU16(static_cast<uint16_t>(image.height()));
  out.WriteByte(static_cast<uint8_t>(palette.size() - 1));
  for (const Pixel& p : palette) {
    out.WriteByte(p.r);
    out.WriteByte(p.g);
    out.WriteByte(p.b);
  }
  int symbol_bits = std::max(2, BitsForPalette(static_cast<int>(palette.size())));
  LzwEncode(indices, symbol_bits, &out);
  return out.Finish();
}

Result<RasterImage> GifDecode(const std::vector<uint8_t>& bytes) {
  if (!IsGif(bytes)) {
    return CorruptionError("not an SGIF image");
  }
  BitReader in(bytes.data(), bytes.size());
  in.ReadByte();
  in.ReadByte();
  int width = in.ReadU16();
  int height = in.ReadU16();
  int palette_size = in.ReadByte() + 1;
  // Reject implausible headers before allocating pixel buffers: a corrupt header
  // must not turn into a multi-gigabyte allocation.
  constexpr int64_t kMaxPixels = int64_t{1} << 24;  // 16 Mpx ~ 4096x4096.
  if (width <= 0 || height <= 0 ||
      static_cast<int64_t>(width) * static_cast<int64_t>(height) > kMaxPixels) {
    return CorruptionError("bad SGIF dimensions");
  }
  // A plausible stream must have at least the palette + some code bits.
  if (bytes.size() < static_cast<size_t>(7 + 3 * palette_size)) {
    return CorruptionError("SGIF header truncated");
  }
  std::vector<Pixel> palette(static_cast<size_t>(palette_size));
  for (Pixel& p : palette) {
    p.r = in.ReadByte();
    p.g = in.ReadByte();
    p.b = in.ReadByte();
  }
  if (in.error()) {
    return CorruptionError("SGIF header truncated");
  }
  int symbol_bits = std::max(2, BitsForPalette(palette_size));
  auto expected = static_cast<size_t>(width) * static_cast<size_t>(height);
  std::vector<uint8_t> indices;
  indices.reserve(expected);
  Status s = LzwDecode(&in, symbol_bits, expected, &indices);
  if (!s.ok()) {
    return s;
  }
  if (indices.size() != expected) {
    return CorruptionError("SGIF pixel count mismatch");
  }
  RasterImage img(width, height);
  for (size_t i = 0; i < expected; ++i) {
    uint8_t idx = indices[i];
    if (idx >= palette.size()) {
      return CorruptionError("SGIF palette index out of range");
    }
    img.pixels()[i] = palette[idx];
  }
  return img;
}

bool IsGif(const std::vector<uint8_t>& bytes) {
  return bytes.size() > 8 && bytes[0] == kMagic0 && bytes[1] == kMagic1;
}

bool IsGif(const Content& content) {
  uint8_t magic[2];
  return content.size() > 8 && content.CopyPrefix(magic, 2) == 2 && magic[0] == kMagic0 &&
         magic[1] == kMagic1;
}

}  // namespace sns

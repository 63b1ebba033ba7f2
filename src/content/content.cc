#include "src/content/content.h"

#include <algorithm>

#include "src/util/rng.h"
#include "src/util/strings.h"

namespace sns {

namespace {

// The xorshift64* stream of FillOpaqueBytes, continued from state `*h`.
void FillXorshiftBytes(uint64_t* h, uint8_t* out, size_t n) {
  auto next_word = [h] {
    *h ^= *h >> 12;
    *h ^= *h << 25;
    *h ^= *h >> 27;
    return *h * 0x2545F4914F6CDD1DULL;
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Spelled out so the compiler merges them into one store on little-endian hosts.
    uint64_t word = next_word();
    out[i] = static_cast<uint8_t>(word);
    out[i + 1] = static_cast<uint8_t>(word >> 8);
    out[i + 2] = static_cast<uint8_t>(word >> 16);
    out[i + 3] = static_cast<uint8_t>(word >> 24);
    out[i + 4] = static_cast<uint8_t>(word >> 32);
    out[i + 5] = static_cast<uint8_t>(word >> 40);
    out[i + 6] = static_cast<uint8_t>(word >> 48);
    out[i + 7] = static_cast<uint8_t>(word >> 56);
  }
  if (i < n) {
    uint64_t word = next_word();
    for (; i < n; ++i, word >>= 8) {
      out[i] = static_cast<uint8_t>(word);
    }
  }
}

uint64_t XorshiftStart(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL; }

// Writes the first n bytes of opaque `content`; n <= content.size().
void WriteOpaqueBytes(const Content& content, uint8_t* out, size_t n) {
  if (content.filler() == Content::Filler::kDistilled) {
    uint64_t h = XorshiftStart(content.seed());
    FillXorshiftBytes(&h, out, n);
  } else {
    Rng(content.seed()).FillBytes(out, n);
  }
  if (content.filler() != Content::Filler::kUniverseOther && content.size() >= 2) {
    std::fill_n(out, std::min<size_t>(n, 2), 'X');  // The magic that fails every codec's check.
  }
}

}  // namespace

std::shared_ptr<const Content> Content::Make(std::string url, MimeType mime,
                                             std::vector<uint8_t> bytes) {
  auto c = std::make_shared<Content>();
  c->url = std::move(url);
  c->mime = mime;
  c->size_ = static_cast<int64_t>(bytes.size());
  c->bytes_ = std::move(bytes);
  return c;
}

std::shared_ptr<const Content> Content::MakeOpaque(std::string url, MimeType mime,
                                                   Filler filler, uint64_t seed, int64_t size) {
  auto c = std::make_shared<Content>();
  c->url = std::move(url);
  c->mime = mime;
  c->filler_ = filler;
  c->seed_ = seed;
  c->size_ = size;
  return c;
}

const std::vector<uint8_t>& Content::bytes() const {
  if (!materialized()) {
    std::vector<uint8_t> bytes(static_cast<size_t>(size_));
    WriteOpaqueBytes(*this, bytes.data(), bytes.size());
    bytes_ = std::move(bytes);
  }
  return bytes_;
}

size_t Content::CopyPrefix(uint8_t* out, size_t n) const {
  n = std::min(n, static_cast<size_t>(size_));
  if (materialized()) {
    std::copy_n(bytes_.data(), n, out);
  } else {
    WriteOpaqueBytes(*this, out, n);
  }
  return n;
}

bool SameBytes(const Content& a, const Content& b) {
  if (&a == &b) {
    return true;
  }
  if (a.size() != b.size()) {
    return false;
  }
  if (a.filler() != Content::Filler::kNone && a.filler() == b.filler() &&
      a.seed() == b.seed()) {
    return true;  // One descriptor: the same generator run to the same length.
  }
  // Different descriptors can still name equal bytes (every 2-byte opaque image
  // is "XX"), so compare the bytes themselves.
  return a.bytes() == b.bytes();
}

void FillOpaqueBytes(const std::string& url, uint8_t* out, size_t n) {
  uint64_t h = XorshiftStart(Fnv1a(url));
  FillXorshiftBytes(&h, out, n);
}

}  // namespace sns

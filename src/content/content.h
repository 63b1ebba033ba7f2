// A unit of web content flowing through the system: the thing caches store and
// distillers transform.
//
// Content is either real bytes (codec images, HTML, search results, extras
// output) or opaque benchmark filler. Opaque content is a descriptor: the
// generator that writes its bytes, the generator's seed and the size. Its bytes
// are a pure function of the descriptor ("can be regenerated from the
// original", §3.1.8), so they are synthesized only on the first call to
// bytes(). size() and CopyPrefix (the codec magic check) read the descriptor,
// SameBytes decides equal descriptors without the bytes, and the request path
// calls nothing else, so a benchmark run never writes the filler at all.
//
// A Content is shared read-only (ContentPtr), but bytes() fills a mutable member
// behind that const: like the rest of the simulation, a Content belongs to one
// thread.

#ifndef SRC_CONTENT_CONTENT_H_
#define SRC_CONTENT_CONTENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/content/mime.h"

namespace sns {

class Content {
 public:
  // How a Content's bytes come about. Every generator writes one 64-bit word per
  // 8 bytes, little-endian, the n % 8 tail being the low bytes of one more word.
  enum class Filler : uint8_t {
    kNone,           // Real content: the bytes were given.
    kUniverseImage,  // Rng(seed).FillBytes, then "XX" over bytes 0 and 1 (when
                     // size >= 2) so the codec magic check fails: the
                     // ContentUniverse's opaque GIFs and JPEGs.
    kUniverseOther,  // Rng(seed).FillBytes: the ContentUniverse's kOther content.
    kDistilled,      // The FillOpaqueBytes stream of seed Fnv1a(url), then "XX"
                     // like kUniverseImage: opaque distiller output.
  };

  std::string url;
  MimeType mime = MimeType::kOther;

  static std::shared_ptr<const Content> Make(std::string url, MimeType mime,
                                             std::vector<uint8_t> bytes);
  // Opaque content of `size` bytes; `filler` is not kNone.
  static std::shared_ptr<const Content> MakeOpaque(std::string url, MimeType mime,
                                                   Filler filler, uint64_t seed, int64_t size);

  int64_t size() const { return size_; }
  Filler filler() const { return filler_; }
  uint64_t seed() const { return seed_; }

  // The encoded representation (SGIF/SJPG/HTML text/...). Opaque bytes are
  // synthesized on the first call and kept.
  const std::vector<uint8_t>& bytes() const;
  // True if bytes() has nothing left to synthesize.
  bool materialized() const {
    return filler_ == Filler::kNone || static_cast<int64_t>(bytes_.size()) == size_;
  }

  // Writes the first min(n, size()) bytes to `out` and returns how many; opaque
  // content is not materialized.
  size_t CopyPrefix(uint8_t* out, size_t n) const;

 private:
  Filler filler_ = Filler::kNone;
  uint64_t seed_ = 0;
  int64_t size_ = 0;
  mutable std::vector<uint8_t> bytes_;  // All of them, or none while opaque.
};

using ContentPtr = std::shared_ptr<const Content>;

// Whether `a` and `b` hold the same bytes. One object, different sizes and
// equal descriptors decide it without the bytes; anything else compares
// bytes(), materializing an opaque side. The cache node's anti-entropy test
// never gets that far on opaque content: two copies of one key are either real
// bytes or carry one descriptor (one URL, one seed, one size).
bool SameBytes(const Content& a, const Content& b);

// The stream of opaque distiller output before its "XX" magic: xorshift64*
// words seeded by Fnv1a(url), each written as 8 little-endian bytes, the n % 8
// tail bytes being the low bytes of one more word. Fills out[0, n). Production
// code reaches this stream through Content::bytes(); this entry point lets
// tests check it against a byte-at-a-time reference.
void FillOpaqueBytes(const std::string& url, uint8_t* out, size_t n);

}  // namespace sns

#endif  // SRC_CONTENT_CONTENT_H_

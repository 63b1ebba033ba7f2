// Byte-at-a-time reference for the opaque distiller output stream, shared by
// the tests that check the word-at-a-time generator against it.

#ifndef TESTS_OPAQUE_REFERENCE_H_
#define TESTS_OPAQUE_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/strings.h"

namespace sns {

// OpaqueOutput's byte stream (before its "XX" magic) as it was first written:
// one xorshift64* word per 8 bytes, stored one byte per inner-loop step, low
// byte first.
inline std::vector<uint8_t> ReferenceOpaqueBytes(const std::string& url, size_t n) {
  std::vector<uint8_t> bytes(n);
  uint64_t h = Fnv1a(url) * 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < bytes.size();) {
    h ^= h >> 12;
    h ^= h << 25;
    h ^= h >> 27;
    uint64_t word = h * 0x2545F4914F6CDD1DULL;
    for (int k = 0; k < 8 && i < bytes.size(); ++k, ++i, word >>= 8) {
      bytes[i] = static_cast<uint8_t>(word);
    }
  }
  return bytes;
}

}  // namespace sns

#endif  // TESTS_OPAQUE_REFERENCE_H_

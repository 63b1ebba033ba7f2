#include "src/services/extras/rewebber.h"

#include "src/util/strings.h"

namespace sns {

std::vector<uint8_t> XorKeystream(const std::vector<uint8_t>& data, const std::string& key) {
  std::vector<uint8_t> out(data.size());
  uint64_t state = Fnv1a(key) | 1;
  for (size_t i = 0; i < data.size(); ++i) {
    // xorshift64* keystream.
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    out[i] = data[i] ^ static_cast<uint8_t>((state * 0x2545F4914F6CDD1DULL) >> 56);
  }
  return out;
}

TaccResult RewebberWorker::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("rewebber: no input"));
  }
  std::string key = request.ArgOr(kArgKey, request.profile.GetOr(kArgKey, "default-hop-key"));
  std::vector<uint8_t> transformed = XorKeystream(request.input()->bytes(), key);
  // Encrypted payloads are opaque; decrypted ones regain the original type.
  MimeType mime = encrypt_ ? MimeType::kOther : request.input()->mime;
  return TaccResult::Ok(Content::Make(request.url, mime, std::move(transformed)));
}

SimDuration RewebberWorker::EstimateCost(const TaccRequest& request) const {
  // "Computationally intensive": modeled on late-90s public-key + stream crypto.
  return Milliseconds(8) + static_cast<SimDuration>(
                               static_cast<double>(Milliseconds(2)) *
                               (static_cast<double>(request.TotalInputBytes()) / 1024.0));
}

}  // namespace sns

// TranSend's front-end dispatch logic: the Service layer of Figure 2.
//
// Request flow (§3.1.1): pair the request with the user's customization
// preferences, probe the virtual cache for the requested distilled variant, fall
// back to the cached original (fetching from the Internet on a full miss), run the
// appropriate distiller pipeline, inject the result back into the cache, and reply.
//
// BASE behaviors implemented here (§3.1.8):
//   - content below the 1 KB threshold, or types with no distiller, pass through;
//   - on distiller failure/overload the user gets the original content quickly
//     rather than the exact answer slowly (approximate answers);
//   - a cache timeout is just a miss.

#ifndef SRC_SERVICES_TRANSEND_TRANSEND_LOGIC_H_
#define SRC_SERVICES_TRANSEND_TRANSEND_LOGIC_H_

#include <map>
#include <string>
#include <string_view>

#include "src/sns/front_end.h"

namespace sns {

struct TranSendLogicConfig {
  // "data under 1 KB is transferred to the client unmodified, since distillation of
  // such small content rarely results in a size reduction" (§4.1).
  int64_t distill_threshold_bytes = 1024;
  // Store distilled variants back into the virtual cache. The scalability
  // experiment turns this off so every request re-distills (§4.6).
  bool cache_distilled = true;
  // Map a quality label to distiller args.
  static std::map<std::string, std::string> ArgsForQuality(std::string_view label);
};

class TranSendLogic : public FrontEndLogic {
 public:
  explicit TranSendLogic(const TranSendLogicConfig& config) : config_(config) {}

  void HandleRequest(RequestContext* ctx) override;

  // Cache key helpers (also used by tests).
  static std::string OriginalKey(const std::string& url);
  static std::string VariantKey(const std::string& url, std::string_view quality);

 private:
  // The continuations capture no strings: the quality label is read from the
  // request's profile (set once, before the first cache probe) when needed.
  // `distill` is false when the content type has no distiller.
  void WithOriginal(RequestContext* ctx, bool distill);
  void Distill(RequestContext* ctx, bool distill, ContentPtr original, bool original_was_cached);

  TranSendLogicConfig config_;
};

}  // namespace sns

#endif  // SRC_SERVICES_TRANSEND_TRANSEND_LOGIC_H_

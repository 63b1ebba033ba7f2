#include "src/services/transend/transend_logic.h"

#include "src/content/mime.h"
#include "src/services/transend/distillers.h"

namespace sns {
namespace {

// Quality label (low | med | high) when the user has no profile entry.
constexpr char kDefaultQuality[] = "med";

// The user's quality label: a view into `profile`, or the default.
std::string_view QualityOf(const UserProfile& profile) {
  auto it = profile.pairs().find("quality");
  return it == profile.pairs().end() ? std::string_view(kDefaultQuality)
                                     : std::string_view(it->second);
}

// a + b + c, built with a single allocation.
std::string Concat(std::string_view a, std::string_view b, std::string_view c = {}) {
  std::string out;
  out.reserve(a.size() + b.size() + c.size());
  out.append(a).append(b).append(c);
  return out;
}

}  // namespace

std::map<std::string, std::string> TranSendLogicConfig::ArgsForQuality(std::string_view label) {
  // Fig. 3's example operating point is the "med" setting: scale 2, quality 25.
  if (label == "low") {
    return {{kArgScale, "4"}, {kArgQuality, "10"}};
  }
  if (label == "high") {
    return {{kArgScale, "1"}, {kArgQuality, "50"}};
  }
  return {{kArgScale, "2"}, {kArgQuality, "25"}};
}

std::string TranSendLogic::OriginalKey(const std::string& url) { return Concat(url, "|orig"); }

std::string TranSendLogic::VariantKey(const std::string& url, std::string_view quality) {
  // "Users of TranSend request objects that are named by the object URL and the
  // user preferences" (§3.1.8).
  return Concat(url, "|distilled|", quality);
}

void TranSendLogic::HandleRequest(RequestContext* ctx) {
  ctx->GetProfile([this](RequestContext* c, bool /*found*/, const UserProfile& profile) {
    c->SetProfile(profile);
    // The preferences UI (§2.2.1: the front end "provides the user interface to the
    // profile database"; §3.1.6: the toolbar's /prefs links land here). Any
    // "set_<key>" parameter updates the user's profile through the write-through
    // cache and the ACID store.
    bool updated_prefs = false;
    UserProfile updated = profile;
    if (updated.user_id().empty()) {
      updated.set_user_id(c->request().user_id);
    }
    for (const auto& [key, value] : c->request().params) {
      if (key.rfind("set_", 0) == 0 && key.size() > 4) {
        updated.Set(key.substr(4), value);
        updated_prefs = true;
      }
    }
    if (updated_prefs) {
      // Durable-write contract (DESIGN.md §14): the "saved" page goes out only
      // after the profile DB acknowledges the commit; a refused or unacked
      // write surfaces as an error instead of a false confirmation.
      c->PutProfile(updated, [updated](RequestContext* c2, Status status) {
        if (!status.ok()) {
          c2->Respond(std::move(status), nullptr, ResponseSource::kPassThrough, false);
          return;
        }
        c2->SetProfile(updated);
        std::string page = "<html><body><div class=\"transend-toolbar\">Preferences saved for " +
                           updated.user_id() + ".</div></body></html>";
        c2->Respond(Status::Ok(),
                    Content::Make(c2->request().url, MimeType::kHtml,
                                  std::vector<uint8_t>(page.begin(), page.end())),
                    ResponseSource::kPassThrough, false);
      });
      return;
    }
    MimeType mime = MimeTypeFromUrl(c->request().url);
    bool distillable = profile.GetBoolOr("distill", true) &&
                       (mime == MimeType::kGif || mime == MimeType::kJpeg ||
                        mime == MimeType::kHtml);
    if (!distillable) {
      // No distiller for this type: pass the original through (§4.1).
      WithOriginal(c, /*distill=*/false);
      return;
    }
    // First choice: the already-distilled variant in the cache.
    c->CacheGet(VariantKey(c->request().url, QualityOf(c->profile())),
                [this](RequestContext* c2, bool hit, ContentPtr content) {
                  if (hit) {
                    c2->Respond(Status::Ok(), content, ResponseSource::kDistilled, true);
                    return;
                  }
                  // An empty label names no distilled variant: pass the original.
                  WithOriginal(c2, /*distill=*/!QualityOf(c2->profile()).empty());
                });
  });
}

void TranSendLogic::WithOriginal(RequestContext* ctx, bool distill) {
  ctx->CacheGet(
      OriginalKey(ctx->request().url),
      [this, distill](RequestContext* c, bool hit, ContentPtr content) {
        if (hit) {
          Distill(c, distill, std::move(content), /*original_was_cached=*/true);
          return;
        }
        // Full miss: fetch from the Internet (the dominant latency, §4.4).
        c->Fetch(c->request().url, [this, distill](RequestContext* c2, Status status,
                                                   ContentPtr fetched) {
          if (!status.ok()) {
            c2->Respond(std::move(status), nullptr, ResponseSource::kError, false);
            return;
          }
          c2->CachePut(OriginalKey(c2->request().url), fetched);
          Distill(c2, distill, std::move(fetched), /*original_was_cached=*/false);
        });
      });
}

void TranSendLogic::Distill(RequestContext* ctx, bool distill, ContentPtr original,
                            bool original_was_cached) {
  MimeType mime = MimeTypeFromUrl(ctx->request().url);
  if (!distill || original == nullptr || original->size() < config_.distill_threshold_bytes) {
    ctx->Respond(Status::Ok(), original,
                 distill ? ResponseSource::kCacheOriginal : ResponseSource::kPassThrough,
                 original_was_cached);
    return;
  }

  std::string worker_type;
  switch (mime) {
    case MimeType::kGif:
      worker_type = kGifDistillerType;
      break;
    case MimeType::kJpeg:
      worker_type = kJpegDistillerType;
      break;
    case MimeType::kHtml:
      worker_type = kHtmlDistillerType;
      break;
    case MimeType::kOther:
      ctx->Respond(Status::Ok(), original, ResponseSource::kPassThrough, original_was_cached);
      return;
  }

  std::map<std::string, std::string> args =
      TranSendLogicConfig::ArgsForQuality(QualityOf(ctx->profile()));
  // Forward fault-injection markers ("__poison") from the client request.
  for (const auto& [key, value] : ctx->request().params) {
    if (key.rfind("__", 0) == 0) {
      args[key] = value;
    }
  }

  ctx->CallWorker(
      worker_type, std::move(args), {original},
      [this, original, original_was_cached](RequestContext* c, Status status,
                                            ContentPtr distilled) {
        if (!status.ok() || distilled == nullptr) {
          // BASE approximate answer: "If the required distiller has temporarily or
          // permanently failed, the system can return the original content"
          // (§3.1.8). Fast and useful beats exact and slow.
          c->Respond(Status::Ok(), original, ResponseSource::kCacheApproximate,
                     original_was_cached);
          return;
        }
        if (config_.cache_distilled) {
          c->CachePut(VariantKey(c->request().url, QualityOf(c->profile())), distilled);
        }
        c->Respond(Status::Ok(), distilled, ResponseSource::kDistilled, original_was_cached);
      });
}

}  // namespace sns

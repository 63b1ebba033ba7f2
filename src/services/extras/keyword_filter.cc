#include "src/services/extras/keyword_filter.h"

#include "src/content/html.h"
#include "src/util/strings.h"

namespace sns {

TaccResult KeywordFilterWorker::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("filter-keywords: no input"));
  }
  std::string keywords = request.ArgOr(kArgKeywords, request.profile.GetOr(kArgKeywords, ""));
  std::string html(request.input()->bytes().begin(), request.input()->bytes().end());
  for (const std::string& keyword : StrSplit(keywords, ',')) {
    if (!keyword.empty()) {
      html = HighlightKeyword(html, keyword, "<b><font color=\"red\" size=\"+1\">",
                              "</font></b>");
    }
  }
  std::vector<uint8_t> bytes(html.begin(), html.end());
  return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(bytes)));
}

SimDuration KeywordFilterWorker::EstimateCost(const TaccRequest& request) const {
  return Milliseconds(0.5) + static_cast<SimDuration>(
                                 static_cast<double>(Milliseconds(0.3)) *
                                 (static_cast<double>(request.TotalInputBytes()) / 1024.0));
}

}  // namespace sns

#include "src/content/mime.h"

#include <cctype>
#include <string_view>

namespace sns {

const char* MimeTypeName(MimeType type) {
  switch (type) {
    case MimeType::kHtml:
      return "text/html";
    case MimeType::kGif:
      return "image/gif";
    case MimeType::kJpeg:
      return "image/jpeg";
    case MimeType::kOther:
      return "application/octet-stream";
  }
  return "application/octet-stream";
}

namespace {

// True if `s` ends with `suffix` (lowercase), comparing `s` case-insensitively.
bool EndsWithLower(std::string_view s, std::string_view suffix) {
  if (s.size() < suffix.size()) {
    return false;
  }
  std::string_view tail = s.substr(s.size() - suffix.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(tail[i])) != suffix[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

MimeType MimeTypeFromUrl(const std::string& url) {
  // Strip the query string before looking at the extension.
  std::string_view path = std::string_view(url).substr(0, url.find('?'));
  if (EndsWithLower(path, ".html") || EndsWithLower(path, ".htm") ||
      EndsWithLower(path, "/")) {
    return MimeType::kHtml;
  }
  if (EndsWithLower(path, ".gif")) {
    return MimeType::kGif;
  }
  if (EndsWithLower(path, ".jpg") || EndsWithLower(path, ".jpeg")) {
    return MimeType::kJpeg;
  }
  return MimeType::kOther;
}

}  // namespace sns

#include "src/services/extras/palm_transform.h"

#include <cctype>

#include "src/content/html.h"
#include "src/util/strings.h"

namespace sns {

std::string SpoonFeed(const std::string& html, int cols, int rows) {
  if (cols < 8) {
    cols = 8;
  }
  if (rows < 2) {
    rows = 2;
  }
  // Replace images with placeholders before stripping tags.
  std::string marked;
  marked.reserve(html.size());
  size_t cursor = 0;
  int image_index = 0;
  for (const HtmlTag& tag : ScanTags(html)) {
    if (tag.name == "img") {
      marked.append(html, cursor, tag.begin - cursor);
      marked += StrFormat(" [IMG %d] ", ++image_index);
      cursor = tag.end;
    }
  }
  marked.append(html, cursor, html.size() - cursor);

  std::string text = StripTags(marked);
  // Collapse whitespace into single spaces.
  std::string collapsed;
  bool in_space = true;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!in_space) {
        collapsed += ' ';
        in_space = true;
      }
    } else {
      collapsed += c;
      in_space = false;
    }
  }

  // Greedy word wrap to `cols`, page break every `rows` lines.
  std::string out;
  int line_len = 0;
  int line_count = 0;
  for (const std::string& word : StrSplit(collapsed, ' ')) {
    if (word.empty()) {
      continue;
    }
    int needed = static_cast<int>(word.size()) + (line_len > 0 ? 1 : 0);
    if (line_len + needed > cols && line_len > 0) {
      out += '\n';
      line_len = 0;
      if (++line_count % rows == 0) {
        out += '\f';  // Page break.
      }
    }
    if (line_len > 0) {
      out += ' ';
      ++line_len;
    }
    // Hard-break words longer than the device width.
    std::string w = word;
    while (static_cast<int>(w.size()) > cols) {
      out += w.substr(0, static_cast<size_t>(cols - line_len));
      w = w.substr(static_cast<size_t>(cols - line_len));
      out += '\n';
      line_len = 0;
      if (++line_count % rows == 0) {
        out += '\f';
      }
    }
    out += w;
    line_len += static_cast<int>(w.size());
  }
  return out;
}

TaccResult PalmTransformWorker::Process(const TaccRequest& request) {
  if (request.inputs.empty() || request.input() == nullptr) {
    return TaccResult::Fail(InvalidArgumentError("palm-transform: no input"));
  }
  int cols = static_cast<int>(
      request.ArgIntOr(kArgColumns, request.profile.GetIntOr("palm_cols", 40)));
  int rows = static_cast<int>(
      request.ArgIntOr(kArgRows, request.profile.GetIntOr("palm_rows", 12)));
  std::string html(request.input()->bytes().begin(), request.input()->bytes().end());
  std::string spoon = SpoonFeed(html, cols, rows);
  std::vector<uint8_t> bytes(spoon.begin(), spoon.end());
  return TaccResult::Ok(Content::Make(request.url, MimeType::kOther, std::move(bytes)));
}

SimDuration PalmTransformWorker::EstimateCost(const TaccRequest& request) const {
  return Milliseconds(1) + static_cast<SimDuration>(
                               static_cast<double>(Milliseconds(1.2)) *
                               (static_cast<double>(request.TotalInputBytes()) / 1024.0));
}

}  // namespace sns

#include "src/content/html.h"

#include <cctype>

#include "src/util/strings.h"

namespace sns {

namespace {

const char* const kLoremWords[] = {
    "lorem",   "ipsum",  "dolor",    "sit",    "amet",       "consectetur", "adipiscing",
    "elit",    "sed",    "do",       "eiusmod", "tempor",    "incididunt",  "ut",
    "labore",  "et",     "dolore",   "magna",  "aliqua",     "enim",        "ad",
    "minim",   "veniam", "quis",     "nostrud", "exercitation", "ullamco",  "laboris",
    "nisi",    "aliquip", "ex",      "ea",     "commodo",    "consequat",   "duis",
    "aute",    "irure",  "in",       "reprehenderit", "voluptate", "velit", "esse",
    "cillum",  "fugiat", "nulla",    "pariatur", "excepteur", "sint",       "occaecat",
    "cupidatat", "non",  "proident", "sunt",   "culpa",      "qui",         "officia",
    "deserunt", "mollit", "anim",    "id",     "est",        "laborum",     "berkeley",
    "cluster", "service", "network", "distill", "proxy",     "cache",       "worker"};

std::string RandomWord(Rng* rng) {
  size_t n = sizeof(kLoremWords) / sizeof(kLoremWords[0]);
  return kLoremWords[rng->UniformInt(0, static_cast<int64_t>(n) - 1)];
}

// Root of every link and image URL a generated page carries.
constexpr char kBaseUrl[] = "http://www.example.edu";

// The TranSend preferences toolbar MungeHtml prepends.
constexpr char kToolbarHtml[] =
    "<div class=\"transend-toolbar\">[TranSend] quality: <a href=\"/prefs?q=low\">low</a> "
    "<a href=\"/prefs?q=med\">med</a> <a href=\"/prefs?q=high\">high</a></div>";

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::string GenerateHtmlPage(Rng* rng, const HtmlGenOptions& options) {
  std::string out;
  out += "<html><head><title>";
  for (int i = 0; i < 4; ++i) {
    out += RandomWord(rng);
    out += i < 3 ? " " : "";
  }
  out += "</title></head><body>\n";
  out += "<h1>" + RandomWord(rng) + " " + RandomWord(rng) + "</h1>\n";

  int images_left = options.inline_images;
  int links_left = options.links;
  for (int p = 0; p < options.paragraphs; ++p) {
    out += "<p>";
    for (int w = 0; w < options.words_per_paragraph; ++w) {
      if (links_left > 0 && rng->Bernoulli(0.04)) {
        out += StrFormat("<a href=\"%s/page%lld.html\">%s</a> ", kBaseUrl,
                         static_cast<long long>(rng->UniformInt(0, 9999)),
                         RandomWord(rng).c_str());
        --links_left;
        continue;
      }
      out += RandomWord(rng);
      out += " ";
    }
    out += "</p>\n";
    if (images_left > 0) {
      bool jpeg = rng->Bernoulli(0.35);
      out += StrFormat("<img src=\"%s/img%lld.%s\" alt=\"%s\">\n", kBaseUrl,
                       static_cast<long long>(rng->UniformInt(0, 99999)), jpeg ? "jpg" : "gif",
                       RandomWord(rng).c_str());
      --images_left;
    }
  }
  // Flush any remaining images at the bottom of the page.
  while (images_left-- > 0) {
    out += StrFormat("<img src=\"%s/img%lld.gif\">\n", kBaseUrl,
                     static_cast<long long>(rng->UniformInt(0, 99999)));
  }
  out += "</body></html>\n";
  return out;
}

std::vector<HtmlTag> ScanTags(const std::string& html) {
  std::vector<HtmlTag> tags;
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] != '<') {
      ++i;
      continue;
    }
    size_t close = html.find('>', i);
    if (close == std::string::npos) {
      break;
    }
    HtmlTag tag;
    tag.begin = i;
    tag.end = close + 1;
    size_t p = i + 1;
    // Tag name (may start with '/').
    size_t name_start = p;
    if (p < close && html[p] == '/') {
      ++p;
    }
    while (p < close && !std::isspace(static_cast<unsigned char>(html[p]))) {
      ++p;
    }
    tag.name = AsciiLower(html.substr(name_start, p - name_start));
    // Attributes: name[=value], value optionally quoted.
    while (p < close) {
      while (p < close && std::isspace(static_cast<unsigned char>(html[p]))) {
        ++p;
      }
      if (p >= close) {
        break;
      }
      size_t attr_start = p;
      while (p < close && html[p] != '=' && !std::isspace(static_cast<unsigned char>(html[p]))) {
        ++p;
      }
      std::string attr_name = AsciiLower(html.substr(attr_start, p - attr_start));
      std::string attr_value;
      if (p < close && html[p] == '=') {
        ++p;
        if (p < close && (html[p] == '"' || html[p] == '\'')) {
          char quote = html[p++];
          size_t value_start = p;
          while (p < close && html[p] != quote) {
            ++p;
          }
          attr_value = html.substr(value_start, p - value_start);
          if (p < close) {
            ++p;  // Skip the closing quote.
          }
        } else {
          size_t value_start = p;
          while (p < close && !std::isspace(static_cast<unsigned char>(html[p]))) {
            ++p;
          }
          attr_value = html.substr(value_start, p - value_start);
        }
      }
      if (!attr_name.empty()) {
        tag.attrs.emplace_back(std::move(attr_name), std::move(attr_value));
      }
    }
    tags.push_back(std::move(tag));
    i = close + 1;
  }
  return tags;
}

std::string TagAttr(const HtmlTag& tag, const std::string& attr) {
  for (const auto& [name, value] : tag.attrs) {
    if (name == attr) {
      return value;
    }
  }
  return "";
}

std::vector<std::string> ExtractImageRefs(const std::string& html) {
  std::vector<std::string> refs;
  for (const HtmlTag& tag : ScanTags(html)) {
    if (tag.name == "img") {
      std::string src = TagAttr(tag, "src");
      if (!src.empty()) {
        refs.push_back(std::move(src));
      }
    }
  }
  return refs;
}

std::vector<std::string> ExtractLinks(const std::string& html) {
  std::vector<std::string> links;
  for (const HtmlTag& tag : ScanTags(html)) {
    if (tag.name == "a") {
      std::string href = TagAttr(tag, "href");
      if (!href.empty()) {
        links.push_back(std::move(href));
      }
    }
  }
  return links;
}

std::string StripTags(const std::string& html) {
  std::string out;
  out.reserve(html.size());
  bool in_tag = false;
  for (char c : html) {
    if (c == '<') {
      in_tag = true;
    } else if (c == '>') {
      in_tag = false;
      out += ' ';
    } else if (!in_tag) {
      out += c;
    }
  }
  return out;
}

std::string MungeHtml(const std::string& html, const MungeOptions& options) {
  std::vector<HtmlTag> tags = ScanTags(html);
  std::string out;
  out.reserve(html.size() + 512);

  // Insert the toolbar right after <body> (or at the very top if no body tag).
  size_t toolbar_insert = std::string::npos;
  if (options.add_toolbar) {
    toolbar_insert = 0;
    for (const HtmlTag& tag : tags) {
      if (tag.name == "body") {
        toolbar_insert = tag.end;
        break;
      }
    }
  }

  size_t cursor = 0;
  auto copy_until = [&](size_t until) {
    if (until > cursor) {
      out.append(html, cursor, until - cursor);
      cursor = until;
    }
  };

  if (toolbar_insert == 0 && options.add_toolbar) {
    out += kToolbarHtml;
    out += "\n";
    toolbar_insert = std::string::npos;  // Done.
  }

  for (const HtmlTag& tag : tags) {
    if (options.add_toolbar && toolbar_insert != std::string::npos &&
        tag.end == toolbar_insert) {
      copy_until(tag.end);
      out += kToolbarHtml;
      out += "\n";
      toolbar_insert = std::string::npos;
      continue;
    }
    if (tag.name == "img") {
      std::string src = TagAttr(tag, "src");
      if (!src.empty()) {
        copy_until(tag.begin);
        out += "<img src=\"" + options.proxy_prefix + src + "\"";
        for (const auto& [name, value] : tag.attrs) {
          if (name != "src") {
            out += " " + name + "=\"" + value + "\"";
          }
        }
        out += ">";
        if (options.add_original_links) {
          out += " <a href=\"" + src + "\">[original]</a>";
        }
        cursor = tag.end;
      }
    }
  }
  copy_until(html.size());
  return out;
}

std::string HighlightKeyword(const std::string& html, const std::string& keyword,
                             const std::string& open_markup, const std::string& close_markup) {
  if (keyword.empty()) {
    return html;
  }
  std::string lower_html = AsciiLower(html);
  std::string lower_kw = AsciiLower(keyword);
  std::string out;
  out.reserve(html.size());
  bool in_tag = false;
  size_t i = 0;
  while (i < html.size()) {
    char c = html[i];
    if (c == '<') {
      in_tag = true;
    } else if (c == '>') {
      in_tag = false;
    }
    bool match = false;
    if (!in_tag && lower_html.compare(i, lower_kw.size(), lower_kw) == 0) {
      bool left_ok = i == 0 || !IsWordChar(html[i - 1]);
      size_t after = i + lower_kw.size();
      bool right_ok = after >= html.size() || !IsWordChar(html[after]);
      match = left_ok && right_ok;
    }
    if (match) {
      out += open_markup;
      out.append(html, i, lower_kw.size());
      out += close_markup;
      i += lower_kw.size();
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

}  // namespace sns

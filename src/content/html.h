// Synthetic HTML generation, a minimal tag scanner, and the rewriting primitives
// behind TranSend's HTML "munger" distiller.
//
// Paper §3.1.6: the HTML distiller "marks up inline image references with
// distillation preferences, adds extra links next to distilled images so that users
// can retrieve the original content, and adds a 'toolbar' to each page". These are
// genuine string transformations over genuine (synthetic) pages.

#ifndef SRC_CONTENT_HTML_H_
#define SRC_CONTENT_HTML_H_

#include <string>
#include <vector>

#include "src/util/rng.h"

namespace sns {

// --- Generation -------------------------------------------------------------------

struct HtmlGenOptions {
  int paragraphs = 5;
  int words_per_paragraph = 60;
  int inline_images = 3;   // <img src=...> references emitted into the page.
  int links = 4;
};

// Produces a page with headings, lorem-style prose, links, and <img> references.
// Link and image URLs are synthesized under http://www.example.edu; callers
// collect them via ExtractImageRefs to fetch/distill referenced content.
std::string GenerateHtmlPage(Rng* rng, const HtmlGenOptions& options);

// --- Scanning ----------------------------------------------------------------------

struct HtmlTag {
  std::string name;                 // Lowercased, e.g. "img", "a", "/a".
  size_t begin = 0;                 // Offset of '<'.
  size_t end = 0;                   // Offset one past '>'.
  std::vector<std::pair<std::string, std::string>> attrs;
};

// Scans all tags in order; tolerant of attribute quoting styles and stray '<'.
std::vector<HtmlTag> ScanTags(const std::string& html);

// Returns the value of `attr` within a tag, or "" if absent.
std::string TagAttr(const HtmlTag& tag, const std::string& attr);

// All <img src=...> URLs in document order.
std::vector<std::string> ExtractImageRefs(const std::string& html);

// All <a href=...> URLs in document order.
std::vector<std::string> ExtractLinks(const std::string& html);

// Plain text with all tags removed (used by the keyword-filter and culture-page
// aggregators).
std::string StripTags(const std::string& html);

// --- Rewriting -------------------------------------------------------------------

struct MungeOptions {
  bool add_toolbar = true;           // Prepend the TranSend preferences toolbar.
  bool add_original_links = true;    // "[original]" link next to each image.
  std::string proxy_prefix = "http://transend.berkeley.edu/distill?src=";
};

// Applies the TranSend HTML distillation: returns the rewritten page, with every
// <img> src rewritten through the proxy.
std::string MungeHtml(const std::string& html, const MungeOptions& options);

// Wraps every occurrence of `keyword` (case-insensitive, whole word) in the given
// open/close markup, skipping text inside tags. The keyword-filter service (§5.1).
std::string HighlightKeyword(const std::string& html, const std::string& keyword,
                             const std::string& open_markup, const std::string& close_markup);

}  // namespace sns

#endif  // SRC_CONTENT_HTML_H_

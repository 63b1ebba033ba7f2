#include "src/services/extras/culture_page.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "src/content/html.h"
#include "src/util/strings.h"

namespace sns {

namespace {

const char* const kMonths[] = {"january", "february", "march",     "april",   "may",
                               "june",    "july",     "august",    "september", "october",
                               "november", "december"};

int MonthOf(const std::string& word) {
  std::string lower = AsciiLower(word);
  for (int i = 0; i < 12; ++i) {
    if (lower == kMonths[i]) {
      return i + 1;
    }
  }
  return 0;
}

// Splits text into rough "sentences" on period/newline/semicolon.
std::vector<std::string> Sentences(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == '.' || c == '\n' || c == ';' || c == '!') {
      if (current.size() > 3) {
        out.push_back(current);
      }
      current.clear();
    } else {
      current += c;
    }
  }
  if (current.size() > 3) {
    out.push_back(current);
  }
  return out;
}

}  // namespace

std::vector<ExtractedEvent> ExtractEvents(const std::string& text) {
  std::vector<ExtractedEvent> events;
  for (const std::string& sentence : Sentences(text)) {
    std::vector<std::string> words = StrSplit(sentence, ' ');
    for (size_t i = 0; i < words.size(); ++i) {
      int month = MonthOf(words[i]);
      if (month == 0) {
        continue;
      }
      ExtractedEvent event;
      event.month = month;
      // Look for a day number next to the month word (loose: a word starting with
      // 1-2 digits, tolerating trailing punctuation like "15:" or "3,").
      for (size_t j = i + 1; j < std::min(words.size(), i + 3); ++j) {
        const std::string& w = words[j];
        if (!w.empty() && w.size() <= 4 &&
            std::isdigit(static_cast<unsigned char>(w[0])) != 0) {
          int day = std::atoi(w.c_str());
          if (day >= 1 && day <= 31) {
            event.day = day;
            break;
          }
        }
      }
      // The heuristic accepts month-word sentences even without a day — this is
      // exactly where the spurious 10-20% comes from ("may concerns...").
      event.spurious = event.day == 0;
      std::string desc = sentence;
      if (desc.size() > 140) {
        desc.resize(140);
      }
      event.description = desc;
      events.push_back(std::move(event));
      break;  // One event per sentence.
    }
  }
  return events;
}

std::string GenerateCulturePage(Rng* rng, const std::string& venue, int events) {
  std::string page = "<html><body><h1>" + venue + " events</h1>\n";
  const char* const kActs[] = {"symphony",  "quartet", "gallery opening", "poetry reading",
                               "jazz night", "ballet",  "film festival",   "lecture"};
  for (int i = 0; i < events; ++i) {
    int month = static_cast<int>(rng->UniformInt(1, 12));
    int day = static_cast<int>(rng->UniformInt(1, 28));
    const char* act = kActs[rng->UniformInt(0, 7)];
    // Capitalized month name so MonthOf still matches case-insensitively.
    std::string month_name = kMonths[month - 1];
    month_name[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(month_name[0])));
    page += StrFormat("<p>%s %d: %s at %s. Tickets at the door!</p>\n", month_name.c_str(),
                      day, act, venue.c_str());
  }
  // Prose with bare month words ("may", "march") that trips the loose heuristics.
  page += "<p>You may find parking difficult; we march toward a better lot policy. "
          "Donations may be made in august company.</p>\n";
  page += "</body></html>\n";
  return page;
}

TaccResult CulturePageWorker::Process(const TaccRequest& request) {
  if (request.inputs.empty()) {
    return TaccResult::Fail(InvalidArgumentError("culture-page: no input pages"));
  }
  int month_filter = static_cast<int>(request.ArgIntOr("month", 0));  // 0 = all.
  std::vector<ExtractedEvent> all;
  for (const ContentPtr& page : request.inputs) {
    if (page == nullptr) {
      continue;  // An unreachable source shrinks the calendar (approximate answer).
    }
    std::string text = StripTags(std::string(page->bytes().begin(), page->bytes().end()));
    for (ExtractedEvent& event : ExtractEvents(text)) {
      if (month_filter == 0 || event.month == month_filter) {
        all.push_back(std::move(event));
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const ExtractedEvent& a, const ExtractedEvent& b) {
    if (a.month != b.month) {
      return a.month < b.month;
    }
    return a.day < b.day;
  });
  std::string page = "<html><body><h1>Culture this week</h1><ul>\n";
  for (const ExtractedEvent& event : all) {
    page += StrFormat("<li>[%02d/%02d] %s</li>\n", event.month, event.day,
                      event.description.c_str());
  }
  page += "</ul></body></html>\n";
  std::vector<uint8_t> bytes(page.begin(), page.end());
  return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(bytes)));
}

SimDuration CulturePageWorker::EstimateCost(const TaccRequest& request) const {
  return Milliseconds(2) + static_cast<SimDuration>(
                               static_cast<double>(Milliseconds(1)) *
                               (static_cast<double>(request.TotalInputBytes()) / 1024.0));
}

}  // namespace sns

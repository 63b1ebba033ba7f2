// A small strict pull-style JSON reader for the artifact tools
// (validate_bench_artifact, bench_diff). Header-only, so a tool that includes
// it builds with no libraries. The caller walks the document: Object() hands
// each member's key to a callback that consumes the value, and Array() calls
// one for each element. Values nobody asks for are validated and skipped,
// never stored, so memory stays flat on multi-megabyte artifacts.
//
// Numbers must match '-'? int frac? exp? with int = 0 | [1-9][0-9]*, and be
// finite: strtod alone would accept "NaN"/"Infinity" (what a printf of a NaN
// metric produces), "1.", ".5" or "01". A \uXXXX escape needs four hex digits
// and reads as '?': the tools match only ASCII keys. Arrays and objects nest at
// most kMaxDepth deep, so a hostile file fails instead of exhausting the stack.

#ifndef TOOLS_JSON_READER_H_
#define TOOLS_JSON_READER_H_

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace sns {

class JsonReader {
 public:
  // Real artifacts nest at most 6 deep.
  static constexpr int kMaxDepth = 64;

  // Reads `text` in place: it must outlive the reader.
  explicit JsonReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  // Why the last read failed; empty while every read has succeeded.
  const std::string& error() const { return error_; }

  // Records `what` as the error and returns false.
  bool Fail(const std::string& what) {
    error_ = what;
    return false;
  }

  // The next non-whitespace character, or '\0' at the end of the input.
  char Peek() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
    return p_ < end_ ? *p_ : '\0';
  }

  // True when only whitespace remains.
  bool AtEnd() { return Peek() == '\0' && p_ == end_; }

  // Reads an object, calling member(key) for each member with the reader at
  // the member's value. `member` must consume the value and return whether it
  // succeeded; returning false stops the read.
  template <typename MemberFn>
  bool Object(MemberFn&& member) {
    return List('{', '}', [&] {
      std::string key;
      return String(&key) && Consume(':') && member(key);
    });
  }

  // Reads an array, calling item() with the reader at each element. `item`
  // must consume the element and return whether it succeeded.
  template <typename ItemFn>
  bool Array(ItemFn&& item) {
    return List('[', ']', item);
  }

  // Reads a string into `out` (which may be null to just validate it).
  bool String(std::string* out) {
    if (Peek() != '"') {
      return Fail("expected string");
    }
    if (out != nullptr) {
      out->clear();
    }
    for (++p_; p_ < end_ && *p_ != '"'; ++p_) {
      char c = *p_;
      if (c == '\\') {
        if (++p_ >= end_) {
          return Fail("truncated escape");
        }
        switch (*p_) {
          case '"': case '\\': case '/': c = *p_; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            for (int i = 0; i < 4; ++i) {
              if (++p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
                return Fail("bad \\u escape");
              }
            }
            c = '?';
            break;
          default:
            return Fail("bad escape character");
        }
      }
      if (out != nullptr) {
        out->push_back(c);
      }
    }
    if (p_ >= end_) {
      return Fail("unterminated string");
    }
    ++p_;  // The closing quote.
    return true;
  }

  // Reads a finite number into `out` (which may be null).
  bool Number(double* out) {
    Peek();
    const char* start = p_;
    Take("-");
    bool ok = Integer() && (!Take(".") || Digits());
    if (ok && Take("eE")) {
      Take("+-");
      ok = Digits();
    }
    if (!ok) {
      return Fail("malformed number (NaN/Inf are not valid JSON)");
    }
    double value = std::strtod(std::string(start, p_).c_str(), nullptr);
    if (!std::isfinite(value)) {
      return Fail("non-finite number value");
    }
    if (out != nullptr) {
      *out = value;
    }
    return true;
  }

  // Reads true or false.
  bool Bool(bool* out) {
    *out = Peek() == 't';
    return Literal(*out ? "true" : "false");
  }

  // Reads one element of a run-encoded array (the flight recorder's export,
  // src/obs/timeseries.h): a number is a run of one, [value,count] a run of
  // `count`, which must be an integer from 1 to 2^53.
  bool Run(double* value, double* count) {
    if (Peek() != '[') {
      *count = 1;
      return Number(value);
    }
    int items = 0;
    bool ok = Array([&] {
      switch (++items) {
        case 1:
          return Number(value);
        case 2:
          return Number(count);
        default:
          return Fail("a run has more than two elements");
      }
    });
    if (!ok) {
      return false;
    }
    if (items != 2) {
      return Fail("a run is not [value,count]");
    }
    if (*count < 1 || *count > 0x1p53 || *count != std::floor(*count)) {
      return Fail("a run's count is not an integer from 1 to 2^53");
    }
    return true;
  }

  // Validates and skips one value of any type.
  bool Skip() {
    switch (Peek()) {
      case '{':
        return List('{', '}', [this] { return String(nullptr) && Consume(':') && Skip(); });
      case '[':
        return List('[', ']', [this] { return Skip(); });
      case '"':
        return String(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number(nullptr);
    }
  }

 private:
  // Reads `open` item (',' item)* `close`, or an empty `open` `close`.
  template <typename ItemFn>
  bool List(char open, char close, ItemFn&& item) {
    if (!Consume(open)) {
      return false;
    }
    if (depth_ == kMaxDepth) {
      return Fail("nesting too deep");
    }
    ++depth_;
    bool ok = true;
    if (Peek() == close) {
      ++p_;
    } else {
      while ((ok = item()) && Peek() == ',') {
        ++p_;
      }
      ok = ok && Consume(close);
    }
    --depth_;
    return ok;
  }

  bool Consume(char c) {
    if (Peek() == c) {
      ++p_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  // Consumes the next character if it is one of `chars`.
  bool Take(const char* chars) {
    if (p_ < end_ && *p_ != '\0' && std::strchr(chars, *p_) != nullptr) {
      ++p_;
      return true;
    }
    return false;
  }

  // Consumes one or more digits; false when there is none.
  bool Digits() {
    const char* start = p_;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
      ++p_;
    }
    return p_ != start;
  }

  // Consumes a number's integer part: 0 or [1-9][0-9]*.
  bool Integer() {
    if (p_ < end_ && *p_ == '0') {
      ++p_;
      return p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_));
    }
    return Digits();
  }

  bool Literal(const char* word) {
    for (const char* w = word; *w != '\0'; ++w, ++p_) {
      if (p_ >= end_ || *p_ != *w) {
        return Fail(std::string("expected '") + word + "'");
      }
    }
    return true;
  }

  const char* p_;
  const char* end_;
  int depth_ = 0;
  std::string error_;
};

// Reads the whole file at `path` into `out`; false if it cannot be opened.
inline bool ReadFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

}  // namespace sns

#endif  // TOOLS_JSON_READER_H_

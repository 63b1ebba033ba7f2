#include "src/util/strings.h"

#include <cctype>
#include <cstdio>

namespace sns {

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer covers almost every call; only longer
  // results format a second time, straight into the string.
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(buf)) {
    out.assign(buf, static_cast<size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::vector<std::string> StrSplit(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string HumanBytes(int64_t bytes) {
  double b = static_cast<double>(bytes);
  if (b < 1000.0) {
    return StrFormat("%lld B", static_cast<long long>(bytes));
  }
  if (b < 1000.0 * 1000.0) {
    return StrFormat("%.1f KB", b / 1000.0);
  }
  if (b < 1000.0 * 1000.0 * 1000.0) {
    return StrFormat("%.1f MB", b / 1e6);
  }
  return StrFormat("%.2f GB", b / 1e9);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string AsciiLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

uint64_t Fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }

}  // namespace sns

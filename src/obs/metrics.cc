#include "src/obs/metrics.h"

#include <bit>
#include <charconv>
#include <cmath>

#include "src/util/strings.h"

namespace sns {

namespace {

// A %lld / %llu / %.6g rendering takes at most 20 bytes ("-9223372036854775808",
// "-1.79769e+308"); %.Nf of the largest double needs a sign, 309 integer
// digits, the point and N decimals.
constexpr size_t kNumberBuf = 32;
constexpr size_t kFixedBuf = 512;

bool NeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// The escape sequence for a byte NeedsEscape() accepts.
std::string_view EscapeFor(char c, char (&buf)[6]) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\t':
      return "\\t";
    case '\r':
      return "\\r";
    default:
      static constexpr char kHex[] = "0123456789abcdef";
      buf[0] = '\\';
      buf[1] = 'u';
      buf[2] = '0';
      buf[3] = '0';
      buf[4] = kHex[(c >> 4) & 0xf];
      buf[5] = kHex[c & 0xf];
      return {buf, 6};
  }
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(&out, s);
  return out;
}

void AppendEscaped(std::string* out, std::string_view s) {
  size_t run = 0;  // Start of the pending run of bytes that need no escape.
  for (size_t i = 0; i < s.size(); ++i) {
    if (NeedsEscape(s[i])) {
      char buf[6];
      out->append(s.data() + run, i - run);
      out->append(EscapeFor(s[i], buf));
      run = i + 1;
    }
  }
  out->append(s.data() + run, s.size() - run);
}

size_t EscapedLength(std::string_view s) {
  size_t length = s.size();
  for (char c : s) {
    if (NeedsEscape(c)) {
      char buf[6];
      length += EscapeFor(c, buf).size() - 1;
    }
  }
  return length;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[kNumberBuf];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[kNumberBuf];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
}

void AppendDouble6g(std::string* out, double v) {
  // An integral value below 1e6 prints under %.6g as the plain integer (-0.0
  // excepted: it prints "-0"). Most sampled values are counts, and the integer
  // path is several times faster than the general-format one.
  if (std::fabs(v) < 1e6) {
    auto integral = static_cast<int64_t>(v);
    if (static_cast<double>(integral) == v && (integral != 0 || !std::signbit(v))) {
      AppendInt(out, integral);
      return;
    }
  }
  char buf[kNumberBuf];
  out->append(buf,
              std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6).ptr - buf);
}

void AppendFixed(std::string* out, double v, int precision) {
  char buf[kFixedBuf];
  out->append(
      buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, precision).ptr - buf);
}

size_t UintLength(uint64_t v) {
  static constexpr uint64_t kPow10[] = {
      1ULL,           10ULL,           100ULL,           1000ULL,           10000ULL,
      100000ULL,      1000000ULL,      10000000ULL,      100000000ULL,      1000000000ULL,
      10000000000ULL, 100000000000ULL, 1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
      1000000000000000ULL,    10000000000000000ULL,   100000000000000000ULL,
      1000000000000000000ULL, 10000000000000000000ULL};
  // floor(log10(x)) is bit_width(x) * log10(2) (1233/4096), or one less. Zero
  // has as many digits as one.
  const uint64_t x = v | 1;
  int log10 = (std::bit_width(x) * 1233) >> 12;
  return static_cast<size_t>(log10) + (x >= kPow10[log10] ? 1 : 0);
}

size_t IntLength(int64_t v) {
  // Negate in unsigned arithmetic so INT64_MIN does not overflow.
  return v < 0 ? 1 + UintLength(0 - static_cast<uint64_t>(v)) : UintLength(static_cast<uint64_t>(v));
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, double lo, double hi,
                                         size_t buckets) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(lo, hi, buckets);
  }
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const Counter* c = FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s %lld\n", name.c_str(), static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s %.6g\n", name.c_str(), gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    out += StrFormat("%s count=%lld mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n", name.c_str(),
                     static_cast<long long>(hist->TotalCount()), hist->summary().mean(),
                     hist->Percentile(0.50), hist->Percentile(0.95), hist->Percentile(0.99));
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(counter->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%.6g", JsonEscape(name).c_str(), gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%lld,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
        "\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g}",
        JsonEscape(name).c_str(), static_cast<long long>(hist->TotalCount()),
        hist->summary().mean(), hist->summary().min(), hist->summary().max(),
        hist->Percentile(0.50), hist->Percentile(0.95), hist->Percentile(0.99));
  }
  out += "}}";
  return out;
}

}  // namespace sns

#include "src/util/logging.h"

#include <cstdio>

namespace sns {

Logger& Logger::Get() {
  static Logger instance;
  return instance;
}

void Logger::Write(LogLevel level, const char* component, const std::string& message) {
  const char* tag = "?";
  switch (level) {
    case LogLevel::kDebug:
      tag = "D";
      break;
    case LogLevel::kInfo:
      tag = "I";
      break;
    case LogLevel::kWarning:
      tag = "W";
      break;
    case LogLevel::kError:
      tag = "E";
      break;
    case LogLevel::kNone:
      return;
  }
  std::string line;
  if (time_source_) {
    line += '[';
    line += FormatTime(time_source_());
    line += "] ";
  }
  line += tag;
  line += " ";
  line += component;
  line += ": ";
  line += message;
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace sns

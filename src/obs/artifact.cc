#include "src/obs/artifact.h"

#include <cstdio>
#include <iterator>

#include "src/obs/metrics.h"

namespace sns {

bool WriteRunArtifact(const std::string& path, const std::string& bench, int64_t time_ns,
                      const std::vector<ArtifactSection>& sections) {
  constexpr size_t kRequired = std::size(kArtifactSections);
  if (sections.size() < kRequired) {
    return false;
  }
  for (size_t i = 0; i < kRequired; ++i) {
    if (sections[i].name != kArtifactSections[i]) {
      return false;
    }
  }
  std::string head = "{\"meta\":{\"schema_version\":";
  AppendInt(&head, kArtifactSchemaVersion);
  head += ",\"bench\":\"";
  AppendEscaped(&head, bench);
  head += "\",\"time_ns\":";
  AppendInt(&head, time_ns);
  head += '}';
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs(head.c_str(), f);
  for (const ArtifactSection& section : sections) {
    std::fprintf(f, ",\"%s\":", section.name.c_str());
    std::fwrite(section.json.data(), 1, section.json.size(), f);
  }
  std::fputs("}\n", f);
  bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace sns

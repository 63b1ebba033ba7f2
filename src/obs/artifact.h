// The BENCH_<name>.json run artifact (schema v2): one JSON object holding
//
//   "meta"           {"schema_version":2,"bench":<name>,"time_ns":<sim time>}
//   "snapshot"       monitor export: every registry metric, components, alarms
//   "timeseries"     the flight recorder's ring buffers, {} without a recorder:
//                    {"interval_ns":N,"samples":N,"t_ns":[...],
//                     "series":{"<name>":{"v":[...]},...}}; one clock
//                    for all series, each series' values aligned with its
//                    last entries (see src/obs/timeseries.h)
//   "critical_path"  per-stage latency decomposition over every request
//   "availability"   harvest/yield ledger: windows by offer time (offered,
//                    answered, unanswered, yield, harvest), faults, recovery
//                    gaps
//   "profile"        wall-clock zone profiler snapshot
//   "traces"         trace classes (root outcome, dominant stage) with their
//                    counts, a few exemplar span trees each and class counts
//                    per 10-s window (see src/obs/trace.h)
//
// followed by any caller-specific sections (the scenario matrix appends
// "matrix"). WriteRunArtifact is the only writer of this layout, and
// tools/validate_bench_artifact checks it against the constants below, which
// it includes without linking anything.

#ifndef SRC_OBS_ARTIFACT_H_
#define SRC_OBS_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sns {

inline constexpr int kArtifactSchemaVersion = 2;

// The required sections after "meta", in the order they are written.
inline constexpr const char* kArtifactSections[] = {
    "snapshot", "timeseries", "critical_path", "availability", "profile", "traces"};

struct ArtifactSection {
  std::string name;
  std::string json;  // The section's value: a complete JSON value.
};

// Writes the artifact to `path`: meta, then `sections`, which must start with
// kArtifactSections in order and may add more after them. Returns false when
// a required section is missing or out of order, or when opening, writing or
// closing the file fails.
bool WriteRunArtifact(const std::string& path, const std::string& bench, int64_t time_ns,
                      const std::vector<ArtifactSection>& sections);

}  // namespace sns

#endif  // SRC_OBS_ARTIFACT_H_

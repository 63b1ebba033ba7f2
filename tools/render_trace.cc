// render_trace <BENCH_name.json> [out]: writes the artifact's Perfetto timeline
// (render_trace.h) to `out`, by default BENCH_name.trace.json, reads it back and
// exits nonzero unless it parses and holds one "X" slice per exemplar span, one
// "s"/"f" pair per flow and one "i" instant per fault. stderr has the counts.

#include <cstdio>
#include <map>
#include <string>

#include "json_reader.h"
#include "render_trace.h"

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: %s <BENCH_name.json> [out]\n", argv[0]);
    return 2;
  }
  std::string in = argv[1];
  std::string out = argc == 3 ? argv[2]
                              : (in.ends_with(".json") ? in.substr(0, in.size() - 5) : in) +
                                    ".trace.json";
  std::string artifact, error = "cannot read it";
  sns::TraceRenderer trace;
  if (!sns::ReadFile(in.c_str(), &artifact) || !trace.Render(artifact, &error)) {
    std::fprintf(stderr, "render_trace: %s: %s\n", in.c_str(), error.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  bool written = f != nullptr && std::fputs(trace.json.c_str(), f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "render_trace: cannot write %s\n", out.c_str());
    return 1;
  }
  std::string reread;
  std::map<std::string, long long> n;
  bool parsed = sns::ReadFile(out.c_str(), &reread) && sns::CountTracePhases(reread, &n);
  std::fprintf(stderr, "render_trace: %s: %lld slices for %lld exemplar spans, %lld flows, "
               "%lld fault instants for %lld faults\n",
               out.c_str(), n["X"], trace.spans, trace.flows, n["i"], trace.faults);
  if (!parsed || n["X"] != trace.spans || n["i"] != trace.faults || n["s"] != trace.flows ||
      n["f"] != trace.flows) {
    std::fprintf(stderr, "render_trace: %s does not match its artifact\n", out.c_str());
    return 1;
  }
  return 0;
}

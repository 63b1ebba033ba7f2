// Scenario-matrix runner: executes declarative scenario cells (src/scenario)
// and emits one BENCH_matrix_<cell>.json artifact per cell.
//
//   scenario_matrix --list                 print the smoke-matrix cell names
//   scenario_matrix --smoke                run every smoke-matrix cell
//   scenario_matrix --cell NAME [...]      run the named cell(s) only
//   scenario_matrix --out-dir DIR          artifact directory (default ".")
//   scenario_matrix --suffix S             artifact file-name suffix
//
// Exit status is nonzero if any cell violates a quiesce invariant or fails to
// write its artifact — the matrix-smoke ctest label treats this binary as the
// fixture setup for the per-cell validate + baseline-diff steps.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/scenario/matrix.h"
#include "src/scenario/scenario.h"
#include "src/util/strings.h"

namespace sns {
namespace {

int Run(int argc, char** argv) {
  std::vector<ScenarioCell> matrix = SmokeMatrix();
  std::vector<std::string> wanted;
  bool smoke = false;
  bool list = false;
  CellRunOptions options;
  options.artifact_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--cell" && i + 1 < argc) {
      wanted.push_back(argv[++i]);
    } else if (arg == "--out-dir" && i + 1 < argc) {
      options.artifact_dir = argv[++i];
    } else if (arg == "--suffix" && i + 1 < argc) {
      options.artifact_suffix = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--list] [--smoke] [--cell NAME ...] [--out-dir DIR] "
                   "[--suffix S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (list) {
    for (const ScenarioCell& cell : matrix) {
      std::printf("%s\n", cell.Name().c_str());
    }
    return 0;
  }

  std::vector<ScenarioCell> to_run;
  if (smoke) {
    to_run = matrix;
  }
  for (const std::string& name : wanted) {
    const ScenarioCell* cell = FindCell(matrix, name);
    if (cell == nullptr) {
      std::fprintf(stderr, "unknown cell '%s' (see --list)\n", name.c_str());
      return 2;
    }
    to_run.push_back(*cell);
  }
  if (to_run.empty()) {
    std::fprintf(stderr, "nothing to run: pass --smoke or --cell NAME\n");
    return 2;
  }

  int failed = 0;
  std::printf("%-28s %6s %6s %7s %7s %6s %7s %5s %6s %6s  %s\n", "cell", "p50ms",
              "p99ms", "goodput", "hitrate", "yield", "harvest", "rec_s", "sent",
              "faults", "invariants");
  for (const ScenarioCell& cell : to_run) {
    CellResult result = RunScenarioCell(cell, options);
    const CellMetrics& m = result.metrics;
    std::printf("%-28s %6.0f %6.0f %7.3f %7.3f %6.3f %7.3f %5.0f %6lld %6lld  %s\n",
                cell.Name().c_str(), m.latency_p50_s * 1000, m.latency_p99_s * 1000,
                m.goodput, m.hit_rate, m.yield, m.harvest, m.recovery_s,
                static_cast<long long>(m.sent),
                static_cast<long long>(result.faults_injected),
                result.passed() ? "OK" : "VIOLATED");
    // Fault cells print the paper-style availability figure (per-second yield
    // and harvest with fault/outage annotations) — the Fig. "harvest under
    // faults" analog for this cell.
    if (cell.fault_seed != 0) {
      std::printf("%s", result.availability_table.c_str());
    }
    if (!result.passed()) {
      ++failed;
      std::printf("%s", result.invariants.ToString().c_str());
    }
    if (!options.artifact_dir.empty() && !result.artifact_written) {
      ++failed;
      std::fprintf(stderr, "failed to write %s\n", result.artifact_path.c_str());
    }
  }
  if (failed > 0) {
    std::printf("\n%d cell(s) FAILED\n", failed);
    return 1;
  }
  std::printf("\nall %zu cell(s) passed\n", to_run.size());
  return 0;
}

}  // namespace
}  // namespace sns

int main(int argc, char** argv) { return sns::Run(argc, argv); }

// The committed scenario matrices.
//
// SmokeMatrix() is the CI matrix behind the `matrix-smoke` ctest label: every
// cell here has a blessed baseline under bench/baselines/ and is diffed against
// it by tools/bench_diff on every run. The cell list is part of the repo's
// contract — bench/CMakeLists.txt builds one test per baseline file, and
// tests/scenario_test.cc checks that this list names exactly those files.
// Regenerate baselines with tools/bless_baseline after any change that
// legitimately moves the numbers.

#ifndef SRC_SCENARIO_MATRIX_H_
#define SRC_SCENARIO_MATRIX_H_

#include <string>
#include <vector>

#include "src/scenario/scenario.h"

namespace sns {

// The CI smoke matrix: 13 cells sweeping workload shape (replay, zipf, flash
// crowd, compressed diurnal, streaming TACC), cluster size (2-4 worker nodes,
// 1-2 front ends, 2-4 cache nodes), cache replication R in {1,2,3}, quorum
// vote layout (uniform vs core-weighted), fault schedules (fault-free and
// seeded chaos), and overload regime (nominal vs saturating).
std::vector<ScenarioCell> SmokeMatrix();

// Finds a cell by Name() in `cells`; nullptr when absent.
const ScenarioCell* FindCell(const std::vector<ScenarioCell>& cells,
                             const std::string& name);

}  // namespace sns

#endif  // SRC_SCENARIO_MATRIX_H_

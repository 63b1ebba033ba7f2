#include "src/scenario/matrix.h"

namespace sns {
namespace {

// Shared schedule-generation shape for fault cells: the fault window plus the
// longest outage must fit inside the 40 s measured window (RunScenarioCell
// extends the window if it does not, but keeping it inside preserves identical
// load windows across fault-free and faulted cells of the same shape).
ScheduleGenConfig FaultWindow() {
  ScheduleGenConfig gen;
  gen.horizon = Seconds(20);
  gen.min_events = 2;
  gen.max_events = 3;
  gen.min_outage = Seconds(4);
  gen.max_outage = Seconds(10);
  gen.max_partition_nodes = 2;
  return gen;
}

ClusterShape Shape(int workers, int front_ends, int caches, int replication,
                   VoteLayout votes = VoteLayout::kUniform) {
  ClusterShape shape;
  shape.worker_pool_nodes = workers;
  shape.front_ends = front_ends;
  shape.cache_nodes = caches;
  shape.cache_replication = replication;
  shape.votes = votes;
  return shape;
}

ScenarioCell Cell(WorkloadShape workload, ClusterShape cluster,
                  OverloadRegime regime = OverloadRegime::kNominal,
                  uint64_t fault_seed = 0) {
  ScenarioCell cell;
  cell.workload = workload;
  cell.cluster = cluster;
  cell.regime = regime;
  cell.fault_seed = fault_seed;
  if (fault_seed != 0) {
    cell.gen = FaultWindow();
  }
  return cell;
}

}  // namespace

std::vector<ScenarioCell> SmokeMatrix() {
  std::vector<ScenarioCell> cells;

  // --- Zipf request/response: hot-document skew. ----------------------------------
  cells.push_back(Cell(WorkloadShape::kZipf, Shape(2, 1, 2, 2)));
  cells.push_back(
      Cell(WorkloadShape::kZipf, Shape(2, 1, 2, 2), OverloadRegime::kSaturating));
  // Larger cluster at R=3 under a balanced fault schedule.
  cells.push_back(Cell(WorkloadShape::kZipf, Shape(4, 2, 3, 3),
                       OverloadRegime::kNominal, 0x31));

  // --- Trace replay: flat diurnal, short-timescale bursts only. -------------------
  cells.push_back(Cell(WorkloadShape::kReplay, Shape(2, 2, 2, 1)));
  cells.push_back(Cell(WorkloadShape::kReplay, Shape(4, 2, 4, 2)));
  cells.push_back(
      Cell(WorkloadShape::kReplay, Shape(2, 1, 2, 1), OverloadRegime::kSaturating));

  // --- Flash crowd: 10x step arrivals. --------------------------------------------
  cells.push_back(Cell(WorkloadShape::kFlashCrowd, Shape(3, 2, 2, 2)));
  {
    // The crowd arrives while partitions carve the cluster: the overload and
    // fault axes composed in one cell.
    ScenarioCell cell = Cell(WorkloadShape::kFlashCrowd, Shape(3, 2, 2, 2),
                             OverloadRegime::kNominal, 0x47);
    cell.gen.kind_weights = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.5, 1.0, 1.0, 1.0};
    cells.push_back(cell);
  }
  {
    // The same crowd and the same fault schedule with replication stripped to
    // R=1: the pair is the paper-style availability figure (yield timeline
    // under faults, R=1 vs R=2) in EXPERIMENTS.md.
    ScenarioCell cell = Cell(WorkloadShape::kFlashCrowd, Shape(3, 2, 2, 1),
                             OverloadRegime::kNominal, 0x47);
    cell.gen.kind_weights = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.5, 1.0, 1.0, 1.0};
    cells.push_back(cell);
  }

  // --- Compressed diurnal replay under the core-weighted vote layout. -------------
  cells.push_back(Cell(WorkloadShape::kDiurnal,
                       Shape(2, 1, 2, 2, VoteLayout::kCoreWeighted)));
  {
    // Partition- and profile-DB-biased faults against core-weighted quorum:
    // stranding worker-pool nodes must never cost the service core quorum.
    ScenarioCell cell =
        Cell(WorkloadShape::kDiurnal, Shape(3, 2, 2, 2, VoteLayout::kCoreWeighted),
             OverloadRegime::kNominal, 0x5A);
    cell.gen.kind_weights = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0};
    cells.push_back(cell);
  }

  // --- Streaming TACC: long-lived sessions, per-frame deadlines. ------------------
  cells.push_back(Cell(WorkloadShape::kStream, Shape(2, 1, 2, 2)));
  {
    // Cache-crash-biased faults against R=3: every frame is fresh content, so
    // the cell measures whether replica failover keeps frames inside deadline.
    ScenarioCell cell = Cell(WorkloadShape::kStream, Shape(3, 2, 2, 3),
                             OverloadRegime::kNominal, 0x6B);
    cell.stream.sessions = 10;
    cell.gen.kind_weights = {1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    cells.push_back(cell);
  }
  {
    // Saturating stream: 16 sessions x 4 fps = 64 frames/s against ~46 req/s of
    // distiller capacity. Streams never back off, so yield measures graceful
    // degradation under sustained structural overload.
    ScenarioCell cell =
        Cell(WorkloadShape::kStream, Shape(2, 1, 2, 2), OverloadRegime::kSaturating);
    cell.stream.sessions = 16;
    cells.push_back(cell);
  }

  return cells;
}

const ScenarioCell* FindCell(const std::vector<ScenarioCell>& cells,
                             const std::string& name) {
  for (const ScenarioCell& cell : cells) {
    if (cell.Name() == name) {
      return &cell;
    }
  }
  return nullptr;
}

}  // namespace sns

// Pipeline schedule model: reconstructs, from the measured per-stage
// durations of one step, how long the step takes (a) under the async
// dependency graph — each rank's chain sort → build → properties → LET
// exports → local gravity → remote gravity per arrived LET → integration,
// with a remote-gravity task unable to start before its LET was sent — and
// (b) under the old lockstep schedule with a global barrier after every
// stage (the sum of per-stage rank maxima). The ratio of the two is the
// overlap efficiency the step report prints. Like the Gflop/s "parallel
// model" elsewhere in the repo, this is computed from device-seconds, so it
// is meaningful even when the host has fewer cores than ranks and cannot
// physically overlap the work.
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace bonsai::domain {

// Measured durations (seconds) of one rank's pipeline for one step, taken
// from the rank's spans when its result is folded (fold_step_result).
struct LaneTimeline {
  double sort = 0.0;       // "Sorting SFC"
  double build = 0.0;      // "Tree-construction"
  double props = 0.0;      // "Tree-properties"
  std::vector<std::pair<int, double>> exports;  // (dst rank, seconds), send order
  double local = 0.0;      // "Gravity local"
  std::vector<std::pair<int, double>> remotes;  // (src rank, seconds)
  double integrate = 0.0;  // "Integration"
};

struct ScheduleModel {
  double critical_path = 0.0;       // async DAG completion of the rank stages
  double sequential = 0.0;          // lockstep: sum of per-stage rank maxima
  double gravity_critical = 0.0;    // DAG over exports/local/remote only
  double gravity_sequential = 0.0;  // max(exports)+max(local)+max(remotes)
};

// The model guarantees critical_path <= sequential (likewise for the gravity
// pair): pipelining can only remove barrier wait, never add work.
ScheduleModel model_schedule(std::span<const LaneTimeline> lanes);

}  // namespace bonsai::domain

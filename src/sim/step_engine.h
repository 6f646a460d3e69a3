// Step-level strategy interface (random walks and their relatives), which
// have no useful segment structure: all k agents advance one edge per tick
// until some agent stands on the treasure or the cap is reached. Cost is
// O(k * cap) — these baselines are only run at small D, which is exactly
// the paper's point about random walks on Z^2.
//
// The lock-step execution loop lives in the trial executors (sim/trial.h),
// which also give these strategies start schedules, fail-stop crashes, and
// multi-target races.
#pragma once

#include <memory>
#include <string>

#include "grid/point.h"
#include "rng/rng.h"
#include "sim/types.h"

namespace ants::sim {

/// Per-agent stepper: returns the next position (must be grid-adjacent to
/// `current` or equal to it — waiting is allowed).
class StepProgram {
 public:
  virtual ~StepProgram() = default;
  virtual grid::Point step(rng::Rng& rng, grid::Point current) = 0;
};

class StepStrategy {
 public:
  virtual ~StepStrategy() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<StepProgram> make_program(AgentContext ctx) const = 0;
};

}  // namespace ants::sim

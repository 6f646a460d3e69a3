// The collaborative-search engine (base model).
//
// Simulates k identical non-communicating agents, all starting at the source
// (origin) at time 0, until the first one visits the treasure. Because
// agents never interact, the run outcome is min over agents of each agent's
// private first-hit time; the executor exploits this by processing agents
// under a shrinking time bound (the best hit found so far, or the cap), so
// the cost of a trial is the number of SEGMENTS realized within the bound —
// polylogarithmic in D for the paper's algorithms — never the number of
// grid steps.
//
// run_search is the historical single-treasure entry point; since the
// engine unification it is a thin wrapper over sim::run_trial (sim/trial.h)
// under the trivial environment, and is test-pinned to the exact results it
// produced as a standalone engine.
//
// Determinism: agent a of a trial draws from trial_rng.child(a), so results
// are identical regardless of evaluation order or thread count.
#pragma once

#include "rng/rng.h"
#include "sim/program.h"
#include "sim/segment.h"
#include "sim/types.h"

namespace ants::sim {

struct EngineConfig {
  /// Hard stop: hits strictly later than time_cap count as "not found".
  Time time_cap = kNeverTime;
  /// Safety valve against non-terminating strategies: throws
  /// std::runtime_error if a single agent realizes this many segments
  /// without either hitting the treasure or exceeding the bound.
  std::int64_t max_segments_per_agent = 50'000'000;
  /// Continuous-plane backend knobs (plane::PlaneEngineConfig mirrors);
  /// ignored by the grid backends. time_cap == kNeverTime maps to
  /// plane::kPlaneNever.
  double sight_radius = 1.0;  ///< the paper's eps
  double spiral_pitch = 1.0;  ///< in (0, 2 * sight_radius]: gap-free coverage
};

/// Realizes an op into a concrete segment given the agent's position.
Segment realize(const Op& op, grid::Point current, grid::Point source);

/// Runs one collaborative search trial.
SearchResult run_search(const Strategy& strategy, int k, grid::Point treasure,
                        const rng::Rng& trial_rng,
                        const EngineConfig& config = {});

/// First-hit time of a single agent's program under `bound` (exposed for
/// tests and the visitation tooling). Returns kNeverTime if the agent does
/// not hit at or before the bound.
Time single_agent_hit_time(AgentProgram& program, rng::Rng& rng,
                           grid::Point treasure, grid::Point source,
                           Time bound, std::int64_t max_segments,
                           std::int64_t* segments_out = nullptr);

}  // namespace ants::sim

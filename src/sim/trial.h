// The unified, environment-aware trial executor.
//
// The paper's base model — simultaneous starts, immortal agents, a single
// treasure — is one point in an environment space this module makes
// explicit. A TrialEnvironment is the fully realized environment of ONE
// trial: the target set the agents race for, a start delay per agent, and a
// fail-stop lifetime per agent. draw_environment() realizes it from the
// declarative StartSchedule/CrashModel policies using dedicated child
// streams of the trial rng (kScheduleStream / kCrashStream), so enabling an
// environment axis never perturbs the agents' program randomness.
//
// run_trial() executes a trial under any environment with one of three
// backends, picked by the strategy family:
//
//   * segment backend (sim::Strategy) — the interleaved min-heap sweep with
//     the shrinking time bound (min over agents of the best hit so far),
//     shared identically by the synchronous and asynchronous paths; cost is
//     the number of realized segments, never grid steps.
//   * lock-step backend (sim::StepStrategy) — all agents advance one edge
//     per tick; not-yet-started agents wait at the source, agents whose
//     active time exceeds their lifetime halt in place. Requires a finite
//     time cap (random walks on Z^2 have infinite expected hitting time).
//   * plane backend (plane::PlaneStrategy) — the continuous model the grid
//     discretizes: unit-speed trajectories on R^2, targets are sight discs
//     (plane::run_plane_trial). The same StartSchedule/CrashModel draws
//     apply — integer delays and lifetimes read as continuous time units —
//     so a paired grid-vs-plane sweep perturbs both substrates identically.
//
// Under a sync/no-crash single-target environment all backends reproduce
// the historical run_search / run_step_search / run_plane_search results
// exactly (test-enforced byte-for-byte), so the legacy entry points are
// thin wrappers over this executor.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "plane/engine.h"
#include "rng/rng.h"
#include "sim/async_engine.h"
#include "sim/engine.h"
#include "sim/placement.h"
#include "sim/program.h"
#include "sim/step_engine.h"
#include "sim/types.h"

namespace ants::sim {

/// Child-stream tags of the trial rng reserved for environment draws.
/// Agent programs use child(a) with a in [0, k); these constants are far
/// outside any realistic k and distinct from each other, so the stream
/// families never collide.
inline constexpr std::uint64_t kScheduleStream = 0x5C4ED11E00000001ULL;
inline constexpr std::uint64_t kCrashStream = 0xC7A5400000000002ULL;
/// Target-process draws (Poisson arrivals/lifetimes, drift headings) use
/// their own stream so enabling a dynamic target axis never perturbs the
/// agents' program randomness or the schedule/crash draws. Static target
/// processes keep drawing positions from the trial rng's MAIN stream,
/// exactly as the one-shot draws always have (byte-compat).
inline constexpr std::uint64_t kTargetStream = 0x7A26E7D800000003ULL;

/// Per-target drift velocity in cells (grid) or distance units (plane) per
/// time unit. A drifting grid target with base position `b` occupies
/// b + (llround(vx * t), llround(vy * t)) at tick t (absolute trial time),
/// so its position is O(1) to evaluate at any tick.
struct TargetDrift {
  double vx = 0;
  double vy = 0;
};

/// The fully realized environment of one trial. Exactly one target vector
/// is populated — `targets` for the grid backends, `plane_targets` for the
/// plane backend (continuous sight discs). Empty `starts` / `lifetimes` are
/// the base model (everybody at t = 0, immortal) without paying two k-sized
/// allocations on the synchronous hot path; non-empty vectors must have
/// exactly k entries.
///
/// The target-process fields below default to the classic static model
/// (every target present for the whole trial, instant capture, race ends at
/// the first find); when any of them is engaged the executors take their
/// generalized dynamic loops. Dynamic/collect environments detect a target
/// on ARRIVAL at it — the static-path origin-target special case (an agent
/// waking up on a source treasure) does not apply, and the spec layer never
/// places dynamic targets at the origin (distance >= 1).
struct TrialEnvironment {
  std::vector<grid::Point> targets;        ///< grid targets; first-of-set
  std::vector<plane::Vec2> plane_targets;  ///< plane sight-disc centers
  std::vector<Time> starts;      ///< per-agent start delays (empty = 0)
  std::vector<Time> lifetimes;   ///< per-agent lifetimes (empty = never)

  /// Absolute appear/vanish times, parallel to the populated target vector
  /// (empty = every target lives over the whole trial). A hit at absolute
  /// time T counts iff appear[ti] <= T < vanish[ti]. Doubles on both
  /// substrates: grid hit times are exact integers below 2^53, so the
  /// comparison stays exact there.
  std::vector<double> target_appear;
  std::vector<double> target_vanish;

  /// Set by windowed target processes (Poisson arrivals) even when the
  /// realization spawned ZERO targets, so an empty target vector stays a
  /// legitimate (vacuous) trial instead of a validation error.
  bool windowed = false;

  /// Per-target drift velocities, parallel to `targets` (empty = static).
  /// Step-level (lock-step) strategies only — segment/plane backends have
  /// no per-tick target position and reject drifting targets.
  std::vector<TargetDrift> target_drift;

  /// Capture policy: extra ticks of CONTINUOUS contact required beyond the
  /// first before a find confirms (0 = instant, the classic model). Contact
  /// on the grid is the L1-radius-1 disc around the target (the step-level
  /// analog of the plane sight disc; always-moving walkers could never hold
  /// an exact node for consecutive ticks); leaving the disc or the target
  /// vanishing resets the dwell progress. Step-level strategies only.
  Time capture_dwell = 0;

  /// false: the race ends at the first target found (classic).
  /// true: the trial runs until every spawned target is found (or the time
  /// cap); TrialResult::target_times records per-target discovery times and
  /// TrialResult::time becomes the time-to-all-found.
  bool collect_all = false;

  /// Latest start delay (0 for the base model).
  Time last_start() const noexcept;

  bool has_target_windows() const noexcept {
    return windowed || !target_appear.empty() || !target_vanish.empty();
  }
  bool has_target_drift() const noexcept { return !target_drift.empty(); }

  /// True when any target-process feature is engaged: appear/vanish
  /// windows, drift, dwell capture, or collect-all. Both executors route on
  /// this — the scalar executor into run_*_trial_dynamic, the batch
  /// executor (sim/batch/) into its dynamic SoA paths. It is NOT a
  /// scalar-only marker: the batch executor runs every dynamic environment,
  /// grid and plane, natively.
  bool has_dynamic_targets() const noexcept {
    return has_target_windows() || has_target_drift() || capture_dwell > 0 ||
           collect_all;
  }
};

/// The base-model environment around a single treasure.
TrialEnvironment single_target_environment(grid::Point treasure);

/// Realizes one trial's environment: start delays and lifetimes drawn from
/// the dedicated child streams of `trial_rng`, the target set(s) taken as
/// given (targets are placement draws, which consume the trial rng's main
/// stream exactly as the single-treasure path always has). The overload
/// taking a TrialEnvironment keeps whichever target vector is already
/// populated — grid or plane — and fills only starts/lifetimes.
TrialEnvironment draw_environment(int k, std::vector<grid::Point> targets,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng);
TrialEnvironment draw_environment(int k, TrialEnvironment env,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng);

/// A strategy for the unified executor: exactly one pointer set. The
/// scenario sweep builds this from its registry entry, so every engine
/// family funnels through the same run_trial call site.
struct TrialStrategy {
  const Strategy* segment = nullptr;
  const StepStrategy* step = nullptr;
  const plane::PlaneStrategy* plane = nullptr;
};

/// Runs one trial of `strategy` under `env`. Dispatches to the segment,
/// lock-step, or plane backend; throws std::invalid_argument on k < 1, an
/// empty (or wrong-substrate) target set — except that a windowed process
/// may legitimately spawn zero targets — environment vectors of the wrong
/// size, a null strategy, a step strategy without a finite config.time_cap,
/// or target drift / dwell capture with a non-step strategy. The plane backend reads config.sight_radius /
/// config.spiral_pitch and maps config.time_cap == kNeverTime to
/// plane::kPlaneNever; its times come back fractional, the grid backends'
/// as exact integers (TrialResult times are doubles for exactly this).
TrialResult run_trial(const TrialStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});

/// Convenience overloads for direct engine-level use (tests, examples).
TrialResult run_trial(const Strategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});
TrialResult run_trial(const StepStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});
TrialResult run_trial(const plane::PlaneStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});

/// Realizes the per-trial target state given the adversary distance D — the
/// process generalization of the old one-shot TargetDraw, and the hook the
/// scenario layer's `targets=` axis compiles into. A process owns target
/// state over TIME: it fills the environment's target vector plus any
/// appear/vanish windows and drift velocities for the trial's horizon
/// `time_cap`. Exactly one side is set, mirroring TrialStrategy: `grid`
/// feeds the segment/lock-step backends, `plane` the continuous backend.
///
/// Contract: static processes draw positions from `rng` (the trial rng's
/// MAIN stream — byte-identical to the historical one-shot draws); dynamic
/// processes draw EVERYTHING (inter-arrivals, positions, lifetimes,
/// headings) from rng.child(kTargetStream), so turning a dynamic axis on
/// never perturbs the agents' randomness.
struct TargetProcess {
  std::function<void(rng::Rng& rng, std::int64_t distance, Time time_cap,
                     TrialEnvironment* env)>
      grid;
  std::function<void(rng::Rng& rng, std::int64_t distance, Time time_cap,
                     TrialEnvironment* env)>
      plane;
};

/// The classic adversary as the trivial process: one static treasure per
/// trial from `placement`, present for the whole trial.
TargetProcess single_target(Placement placement);

/// The classic adversary on the plane: one static treasure per trial at
/// distance D in the direction drawn by `angle` (radians; e.g. rng.angle()
/// for the uniform ring adversary).
TargetProcess single_plane_target(std::function<double(rng::Rng&)> angle);

/// Poisson target process (grid): targets appear at the arrival times of a
/// rate-`rate` Poisson process on (0, time_cap], each at an independent
/// `placement` draw at distance D, and vanish after an Exponential lifetime
/// of mean `mean_life` (0 = immortal). Draws from rng.child(kTargetStream);
/// requires a finite time_cap. Per arrival the draw order is inter-arrival,
/// position, lifetime.
TargetProcess poisson_targets(double rate, double mean_life,
                              Placement placement);

/// Poisson target process on the plane: same arrival/lifetime machinery,
/// positions at distance D in the direction drawn by `angle`.
TargetProcess poisson_plane_targets(double rate, double mean_life,
                                    std::function<double(rng::Rng&)> angle);

/// Drifting target process (grid, step-level strategies only): one target
/// whose base position is a `placement` draw at distance D (from the target
/// stream) and which drifts at `speed` cells/tick in the fixed direction
/// `angle_turns` (fraction of a full turn in [0, 1)).
TargetProcess drifting_target(double speed, double angle_turns,
                              Placement placement);

namespace detail {

/// Shared between the scalar executor and the batch kernels (sim/batch/):
/// argument validation and the origin-target special case must behave
/// byte-identically on both paths, so they live in one place.

/// Throws std::invalid_argument exactly as run_trial documents.
void validate_trial_args(const TrialStrategy& strategy, int k,
                         const TrialEnvironment& env);

/// Handles a grid target sitting on the source node: every agent that ever
/// starts finds it the moment it wakes up, so the earliest ALIVE starter
/// (lowest index on ties) is the finder, provided its start is within
/// `time_cap`. Dead-on-arrival agents (lifetime <= 0) never act — they
/// cannot be credited with the find and they count into result->crashed,
/// exactly as on the non-origin path. Returns true iff a target was at the
/// origin (the result is then fully resolved).
bool resolve_origin_target(const TrialEnvironment& env, int k, Time time_cap,
                           TrialResult* result);

/// Target-window and drift evaluation shared verbatim by the scalar dynamic
/// loops and the batch executor's dynamic SoA paths: byte-identity between
/// the two depends on there being exactly one definition of each.

/// Vanish time of a target with no window: never.
inline constexpr double kNeverVanish =
    std::numeric_limits<double>::infinity();

/// Appear/vanish of target `ti`, with the empty-vector defaults (appear at
/// 0, never vanish) materialized.
double appear_of(const TrialEnvironment& env, std::size_t ti) noexcept;
double vanish_of(const TrialEnvironment& env, std::size_t ti) noexcept;

/// Smallest integer offset within a segment started at absolute time `base`
/// at which a hit can fall inside a target's appear window.
Time window_from_offset(double appear, Time base) noexcept;

/// Position of (possibly drifting) grid target `ti` at absolute tick `t`:
/// base + (llround(vx * t), llround(vy * t)).
grid::Point target_position_at(const TrialEnvironment& env, std::size_t ti,
                               Time t) noexcept;

}  // namespace detail

}  // namespace ants::sim

// The batch trial executor: struct-of-arrays state + SIMD kernels.
//
// A sweep cell runs hundreds of trials of ONE (strategy, k) pair under the
// same engine config; the scalar executor (sim::run_trial) rebuilds its
// per-agent state vectors, heap, and plane environment from scratch for
// every trial. BatchRunner hoists that state into reusable contiguous
// arrays — per-agent clocks, positions, elapsed times, lifetimes in SoA
// layout, targets split into coordinate arrays — and drives the inner loops
// (lock-step occupancy checks, plane sight-disc tests, dynamic-target
// gates) through the runtime-dispatched kernels in kernels.h.
//
// The segment and plane backends schedule agents by epoch advance, not the
// scalar executor's min-clock heap: each epoch runs every live agent, in
// index order, back to back up to min(ceiling, bound). Agents never
// interact, so results are order-independent minima over hits ranked in
// the order the heap reaches them (time, past the segment's first node,
// agent, target), and `segments`, `crashed` and the segment budget error
// are reconciled to the final bound from the last epoch's recorded starts.
//
// Batching is strictly an execution detail. Per-trial seed derivation is
// unchanged — agent a still draws from trial_rng.child(a), environments
// from kScheduleStream/kCrashStream — and every kernel is result-identical
// to the scalar loop it replaces (see kernels.h), so
//
//     BatchRunner(strategy, k, config).run_one(env, trial_rng)
//       == run_trial(strategy, k, env, trial_rng, config)
//
// byte for byte, on every dispatch level (test- and CI-enforced against the
// golden CSVs).
//
// A runner is single-threaded and reusable: construct one per worker per
// (strategy, k) pair and feed it a block of trials. kTrialBlock is the
// chunk size the parallel drivers (scenario sweep, sim::Runner) hand one
// worker at a time — large enough to amortize runner reuse, small enough to
// keep work-stealing granular.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "plane/engine.h"
#include "sim/batch/kernels.h"
#include "sim/trial.h"

namespace ants::sim::batch {

/// Trials per work item when a parallel driver chunks a cell into blocks.
inline constexpr std::size_t kTrialBlock = 64;

class BatchRunner {
 public:
  /// Binds the runner to one (strategy, k, config) cell. The strategy must
  /// outlive the runner. Throws std::invalid_argument for the same argument
  /// errors run_trial would report on its first trial (null/ambiguous
  /// strategy, k < 1).
  BatchRunner(const TrialStrategy& strategy, int k,
              const EngineConfig& config = {});

  /// Runs one trial, byte-identical to
  /// run_trial(strategy, k, env, trial_rng, config).
  TrialResult run_one(const TrialEnvironment& env, const rng::Rng& trial_rng);

  /// Trials run_one delegated to the scalar executor since the last call,
  /// returned and reset. Two cases delegate (see run_one and run_segment):
  /// a plane strategy under a dynamic target process, and a hand-built grid
  /// environment with a start beyond util::kTimeCap. Drained per block by
  /// the sweep driver into the batch_scalar_fallback metric.
  std::uint64_t take_scalar_fallbacks() noexcept {
    const std::uint64_t n = scalar_fallbacks_;
    scalar_fallbacks_ = 0;
    return n;
  }

  /// The dispatch level the last/next run_one uses (re-read from
  /// active_simd_level() at each call, so force_simd_level takes effect
  /// between trials).
  SimdLevel level() const noexcept { return kernels_->level; }

 private:
  TrialResult run_segment(const TrialEnvironment& env,
                          const rng::Rng& trial_rng);
  TrialResult run_step(const TrialEnvironment& env, const rng::Rng& trial_rng);
  TrialResult run_plane(const TrialEnvironment& env,
                        const rng::Rng& trial_rng);

  /// Dynamic-target variants (appear/vanish windows, drift, dwell capture,
  /// collect-all), mirroring sim/trial.cpp's run_*_trial_dynamic loops over
  /// the SoA workspaces with the per-tick target tests routed through the
  /// window_gate / drift_positions / find_point_gated / dwell_advance
  /// kernels.
  TrialResult run_segment_dynamic(const TrialEnvironment& env,
                                  const rng::Rng& trial_rng);
  TrialResult run_step_dynamic(const TrialEnvironment& env,
                               const rng::Rng& trial_rng);

  /// Segment-backend agent setup shared by run_segment/_dynamic: programs,
  /// rng streams, clocks, and the live list; counts the dead on arrival.
  void start_segment_agents(const TrialEnvironment& env,
                            const rng::Rng& trial_rng, int* crashed);

  /// Epoch advance over the live agents (segment and plane backends, see
  /// batch.cpp). `step(a)` runs agent a's next segment from clock[a],
  /// updates clock[a] and the race (hence `bound`), and returns true iff
  /// the agent died. Segments of every epoch but the last are added to
  /// *segments/*crashed as they complete; the last epoch stays recorded for
  /// settle_final_epoch. Returns that epoch's floor (its earliest clock).
  template <typename Clock, typename Step>
  Clock advance_epochs(const std::vector<Clock>& clock, const Clock& bound,
                       Step&& step, std::int64_t* segments, int* crashed);

  /// Counts the last epoch's segments the heap executor would have run:
  /// those whose start is `inside` the final bound, plus — when the heap
  /// also ran segments starting at the decisive time `tie_time`
  /// (tie_agent >= 0) — those of the agents below tie_agent and
  /// tie_agent's up to epoch ordinal `tie_last`. Throws the segment budget
  /// error when such a segment was the one refused.
  template <typename Clock, typename Inside>
  void settle_final_epoch(Clock floor, Inside inside, Clock tie_time,
                          int tie_agent, std::uint64_t tie_last,
                          std::int64_t* segments, int* crashed) const;

  /// spiral_theta_for_arc(a, s) through a small direct-mapped memo. The
  /// Newton solve dominates the plane profile and strategies reuse a few
  /// distinct durations (phase budgets) across agents and trials; keying on
  /// the exact bit pattern of s returns bit-identical thetas. `a` is fixed
  /// per runner (derived from config.spiral_pitch), so it is not keyed.
  double spiral_theta(double a, double s);

  TrialStrategy strategy_;
  int k_;
  EngineConfig config_;
  const Kernels* kernels_;

  // --- reusable workspaces (grown once, reused across trials) -------------
  // Shared: per-agent rng streams, grid target SoA.
  std::vector<rng::Rng> rngs_;
  std::vector<std::int64_t> tgt_x_, tgt_y_;

  // Dynamic target processes (per-trial target state, SoA).
  std::vector<double> app_, van_;            ///< appear/vanish windows
  std::vector<double> drift_vx_, drift_vy_;  ///< drift velocities
  std::vector<std::int64_t> cur_tx_, cur_ty_;  ///< drifted positions @ tick
  std::vector<char> alive_;     ///< window gate @ tick (appear <= t < vanish)
  std::vector<char> found_;     ///< per-target found mask (collect-all)
  std::vector<char> gate_;      ///< alive && !found, occupancy-scan gate
  std::vector<std::int64_t> found_at_;  ///< per-target discovery tick
  std::vector<std::int64_t> best_t_;    ///< segment: per-target earliest hit
  std::vector<int> finder_t_;           ///<   past a segment's first node
  std::vector<std::int64_t> zbest_t_;   ///< segment: per-target earliest hit
  std::vector<int> zfinder_t_;          ///<   on a segment's first node, and
  std::vector<std::uint64_t> zrecord_t_;  ///< its epoch ordinal
  std::vector<std::int64_t> held_;      ///< dwell contact clocks, uk * nt
  std::vector<std::uint32_t> confirm_;  ///< dwell_advance output buffer

  // Segment backend.
  std::vector<std::unique_ptr<AgentProgram>> seg_programs_;
  std::vector<std::int64_t> clock_;    ///< absolute clock (next segment start)
  std::vector<std::int64_t> elapsed_;  ///< active time in own program
  std::vector<std::int64_t> pos_x_, pos_y_;
  std::vector<std::int64_t> seg_count_;

  // Epoch advance (segment and plane backends): the current epoch's log of
  // segment starts, one entry per distinct start of an agent's run.
  struct EpochRun {
    std::uint32_t agent;
    std::uint32_t entries_end;  ///< one past its last log entry
    std::uint64_t end;          ///< one past its last segment's ordinal
    bool crashed;               ///< its last segment ended its lifetime
    bool refused;               ///< its last segment is one the budget refused
  };
  struct EpochRepeat {
    std::uint32_t entry;  ///< log entry shared by consecutive segments
    std::uint64_t extra;  ///< segments beyond the first starting there
  };
  std::vector<std::uint32_t> live_;   ///< agents still advancing
  std::vector<EpochRun> runs_;        ///< the current epoch's agent runs
  std::vector<std::uint32_t> starts_;  ///< grid starts, as offsets from the
                                       ///< epoch floor
  std::vector<Time> wide_starts_;      ///< grid starts of epochs too wide
                                       ///< for uint32 offsets
  std::vector<double> pstarts_;        ///< plane starts
  std::vector<EpochRepeat> repeats_;   ///< repeated starts, by entry
  std::uint64_t epoch_segments_ = 0;   ///< segments run in the epoch

  // Lock-step backend.
  std::vector<std::unique_ptr<StepProgram>> step_programs_;
  std::vector<char> crashed_;

  // Plane backend.
  std::vector<std::unique_ptr<plane::PlaneAgentProgram>> plane_programs_;
  plane::PlaneTrialEnvironment plane_env_;
  std::vector<double> ptgt_x_, ptgt_y_;
  std::vector<double> pclock_;    ///< absolute clock (next move start)
  std::vector<double> pelapsed_;
  std::vector<double> ppos_x_, ppos_y_;
  std::vector<std::uint32_t> cand_;  ///< line_candidates output buffer

  struct ThetaMemoEntry {
    std::uint64_t s_bits = 0;
    double theta = 0.0;
    bool valid = false;
  };
  std::array<ThetaMemoEntry, 64> theta_memo_{};

  std::uint64_t scalar_fallbacks_ = 0;
};

}  // namespace ants::sim::batch

// The target-process API (sim::TargetProcess): per-trial objects owning
// target state over TIME — static draws as the trivial process, Poisson
// arrival/lifetime windows, drifting targets, and dwell capture — plus the
// scenario-layer surface built on top (cache keys, cached aggregates).
//
// Contracts pinned here:
//   * static processes are byte-identical to the direct environment draws
//     they replaced (same rng stream, same draw order, same results);
//   * dynamic processes draw exclusively from the target child stream, so
//     enabling them never perturbs the trial rng's main stream;
//   * zero-spawn Poisson realizations are legitimate trials, not validation
//     errors, on every backend and in both collect modes;
//   * dwell capture requires held contact and resets on leaving the disc or
//     on the target vanishing mid-dwell;
//   * the batch executor runs every dynamic environment — grid and plane —
//     natively, byte-identical to the scalar reference at every forced SIMD
//     level and with zero scalar delegations;
//   * capture/collect are part of the scenario cell cache key, and the new
//     target aggregates survive a cache round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/random_walk.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "plane/strategies.h"
#include "rng/splitmix64.h"
#include "scenario/environment.h"
#include "scenario/plan.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/batch/batch.h"
#include "sim/batch/simd.h"
#include "sim/placement.h"
#include "sim/trial.h"
#include "test_support.h"

namespace ants {
namespace {

using grid::Point;
using sim::EngineConfig;
using sim::Time;
using sim::TrialEnvironment;
using sim::TrialResult;

/// Deterministic stepper marching east forever (enters the L1 disc of an
/// on-axis target one tick before standing on it — the dwell test fixture).
class EastStrategy final : public sim::StepStrategy {
 public:
  std::string name() const override { return "east"; }
  std::unique_ptr<sim::StepProgram> make_program(
      sim::AgentContext) const override {
    class P final : public sim::StepProgram {
      Point step(rng::Rng&, Point current) override {
        return current + Point{1, 0};
      }
    };
    return std::make_unique<P>();
  }
};

/// Oscillates between (1,0) and (0,0): touches the L1 disc of a target at
/// (2,0) every other tick but never holds contact two ticks in a row.
class OscillateStrategy final : public sim::StepStrategy {
 public:
  std::string name() const override { return "oscillate"; }
  std::unique_ptr<sim::StepProgram> make_program(
      sim::AgentContext) const override {
    class P final : public sim::StepProgram {
      Point step(rng::Rng&, Point current) override {
        return current == Point{0, 0} ? Point{1, 0} : Point{0, 0};
      }
    };
    return std::make_unique<P>();
  }
};

void expect_same_result(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
  EXPECT_EQ(a.first_target, b.first_target);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.from_last_start, b.from_last_start);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.target_times, b.target_times);
}

// ---------------------------------------------------------------------------
// Static processes: the trivial process is byte-identical to direct draws.
// ---------------------------------------------------------------------------

TEST(TargetProcess, StaticGridProcessMatchesDirectDraw) {
  const sim::TargetProcess process =
      sim::single_target(sim::uniform_ring_placement());
  const sim::Placement direct = sim::uniform_ring_placement();
  for (std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    rng::Rng process_rng(seed);
    rng::Rng direct_rng(seed);
    TrialEnvironment via_process;
    process.grid(process_rng, 7, 1000, &via_process);
    const Point direct_draw = direct(direct_rng, 7);
    ASSERT_EQ(via_process.targets.size(), 1u);
    EXPECT_EQ(via_process.targets[0], direct_draw);
    // Both consumed the same number of main-stream draws.
    EXPECT_EQ(process_rng.bits(), direct_rng.bits());
    // And the realized environment runs identically to the hand-built one.
    const core::KnownKStrategy known(3);
    EngineConfig config;
    config.time_cap = 100000;
    TrialEnvironment direct_env;
    direct_env.targets = {direct_draw};
    expect_same_result(
        run_trial(known, 3, via_process, rng::Rng(seed * 31), config),
        run_trial(known, 3, direct_env, rng::Rng(seed * 31), config));
  }
}

TEST(TargetProcess, StaticPlaneProcessMatchesDirectDraw) {
  const sim::TargetProcess process =
      sim::single_plane_target([](rng::Rng& rng) { return rng.angle(); });
  for (std::uint64_t seed : {7ULL, 1234ULL}) {
    rng::Rng process_rng(seed);
    rng::Rng direct_rng(seed);
    TrialEnvironment via_process;
    process.plane(process_rng, 12, 1000, &via_process);
    const plane::Vec2 direct_draw =
        plane::unit(direct_rng.angle()) * 12.0;
    ASSERT_EQ(via_process.plane_targets.size(), 1u);
    EXPECT_EQ(via_process.plane_targets[0].x, direct_draw.x);
    EXPECT_EQ(via_process.plane_targets[0].y, direct_draw.y);
    EXPECT_EQ(process_rng.bits(), direct_rng.bits());
  }
}

// ---------------------------------------------------------------------------
// Poisson processes: determinism, stream isolation, realization shape.
// ---------------------------------------------------------------------------

TEST(TargetProcess, PoissonRealizationIsDeterministic) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 100.0, sim::uniform_ring_placement());
  TrialEnvironment a, b;
  rng::Rng rng_a(2024), rng_b(2024);
  process.grid(rng_a, 5, 2000, &a);
  process.grid(rng_b, 5, 2000, &b);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.target_appear, b.target_appear);
  EXPECT_EQ(a.target_vanish, b.target_vanish);
  EXPECT_TRUE(a.windowed);
}

TEST(TargetProcess, PoissonDrawsOnlyFromTargetStream) {
  // Realizing a Poisson process must not advance the trial rng's main
  // stream: the next main-stream draw equals an untouched twin's.
  const sim::TargetProcess process =
      sim::poisson_targets(0.02, 0.0, sim::uniform_ring_placement());
  rng::Rng realized(777), untouched(777);
  TrialEnvironment env;
  process.grid(realized, 4, 5000, &env);
  EXPECT_EQ(realized.bits(), untouched.bits());
}

TEST(TargetProcess, PoissonRealizationShape) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 100.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(99);
  const Time cap = 2000;
  process.grid(rng, 6, cap, &env);
  ASSERT_GT(env.targets.size(), 0u);
  ASSERT_EQ(env.target_appear.size(), env.targets.size());
  ASSERT_EQ(env.target_vanish.size(), env.targets.size());
  double prev = 0.0;
  for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
    EXPECT_GT(env.target_appear[ti], prev);
    EXPECT_LE(env.target_appear[ti], static_cast<double>(cap));
    EXPECT_GT(env.target_vanish[ti], env.target_appear[ti]);
    prev = env.target_appear[ti];
  }
}

TEST(TargetProcess, PoissonImmortalLifetimes) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(99);
  process.grid(rng, 6, 2000, &env);
  ASSERT_GT(env.targets.size(), 0u);
  for (const double vanish : env.target_vanish) {
    EXPECT_TRUE(std::isinf(vanish));
  }
}

TEST(TargetProcess, PoissonRequiresFiniteHorizon) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(1);
  EXPECT_THROW(process.grid(rng, 4, sim::kNeverTime, &env),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero-spawn realizations: legitimate trials, not validation errors.
// ---------------------------------------------------------------------------

TEST(TargetProcess, ZeroSpawnPoissonIsNotAnError) {
  // A rate this low realizes zero arrivals over the horizon for any seed
  // whose first exponential draw exceeds it — pinned by the fixed seed.
  const sim::TargetProcess process =
      sim::poisson_targets(1e-12, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(5);
  process.grid(rng, 4, 100, &env);
  ASSERT_TRUE(env.targets.empty());
  EXPECT_TRUE(env.windowed);
  EXPECT_TRUE(env.has_target_windows());

  const baselines::RandomWalkStrategy rw;
  EngineConfig config;
  config.time_cap = 100;

  // First-of-set mode: nothing to find; the trial runs out the cap and the
  // walker's cost accounting still happens (one edge per tick).
  const TrialResult first = run_trial(rw, 2, env, rng::Rng(17), config);
  EXPECT_FALSE(first.found);
  EXPECT_EQ(first.time, 100.0);
  EXPECT_EQ(first.segments, 200);

  // Collect-all mode: vacuously complete at t = 0.
  TrialEnvironment collect_env = env;
  collect_env.collect_all = true;
  const TrialResult all = run_trial(rw, 2, collect_env, rng::Rng(17), config);
  EXPECT_TRUE(all.found);
  EXPECT_EQ(all.time, 0.0);
  EXPECT_TRUE(all.target_times.empty());
}

TEST(TargetProcess, ZeroSpawnSegmentAndPlaneBackends) {
  EngineConfig config;
  config.time_cap = 50;

  TrialEnvironment grid_env;
  grid_env.windowed = true;
  const core::KnownKStrategy known(2);
  const TrialResult seg = run_trial(known, 2, grid_env, rng::Rng(3), config);
  EXPECT_FALSE(seg.found);
  EXPECT_EQ(seg.time, 50.0);

  TrialEnvironment plane_env;
  plane_env.windowed = true;
  const plane::PlaneKnownKStrategy plane_known(2);
  const TrialResult pl =
      run_trial(plane_known, 2, plane_env, rng::Rng(3), config);
  EXPECT_FALSE(pl.found);
  EXPECT_EQ(pl.time, 50.0);
}

// ---------------------------------------------------------------------------
// Dwell capture: held contact confirms, losing contact resets.
// ---------------------------------------------------------------------------

TEST(TargetProcess, DwellCaptureConfirmsAfterHeldContact) {
  // East walker: in the L1 disc of (2,0) from t = 1 on (positions 1, 2, 3).
  // dwell=2 needs three consecutive contact ticks, so capture lands at t=3.
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.capture_dwell = 2;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 3.0);
  EXPECT_EQ(r.finder, 0);

  // Instant capture on the same walk finds it at t = 2 (exact node).
  env.capture_dwell = 0;
  const TrialResult instant = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(instant.found);
  EXPECT_EQ(instant.time, 2.0);
}

TEST(TargetProcess, DwellResetsWhenAgentLeavesDisc) {
  // The oscillator touches the disc of (2,0) at (1,0) on odd ticks and
  // leaves it on even ticks: contact never holds, so dwell never confirms.
  const OscillateStrategy osc;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.capture_dwell = 1;
  EngineConfig config;
  config.time_cap = 200;
  const TrialResult r = run_trial(osc, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 200.0);
}

TEST(TargetProcess, DwellResetsWhenTargetVanishesMidDwell) {
  // The east walker holds contact from t = 1, needing t = 3 to confirm at
  // dwell=2 — but the target vanishes at 2.5, wiping the held progress.
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.target_appear = {0.0};
  env.target_vanish = {2.5};
  env.capture_dwell = 2;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult gone = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(gone.found);

  // Control: the same trial with a late vanish confirms at t = 3.
  env.target_vanish = {1000.0};
  const TrialResult held = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(held.found);
  EXPECT_EQ(held.time, 3.0);
}

// ---------------------------------------------------------------------------
// Drifting targets.
// ---------------------------------------------------------------------------

TEST(TargetProcess, DriftingTargetInterceptedHeadOn) {
  // Base (4,0) drifting at 1 cell/tick toward -x (angle 0.5 turns); the
  // east walker at (t,0) meets it where t = 4 - t, i.e. t = 2.
  const sim::TargetProcess process =
      sim::drifting_target(1.0, 0.5, sim::axis_placement());
  TrialEnvironment env;
  rng::Rng rng(11);
  process.grid(rng, 4, 100, &env);
  ASSERT_EQ(env.targets.size(), 1u);
  ASSERT_EQ(env.target_drift.size(), 1u);
  EXPECT_EQ(env.targets[0], (Point{4, 0}));

  const EastStrategy east;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(2), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 2.0);
}

TEST(TargetProcess, DriftRequiresStepStrategy) {
  TrialEnvironment env;
  env.targets = {Point{4, 0}};
  env.target_drift = {sim::TargetDrift{1.0, 0.0}};
  const core::KnownKStrategy known(2);
  EngineConfig config;
  config.time_cap = 100;
  EXPECT_THROW(run_trial(known, 2, env, rng::Rng(1), config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Collect-all: per-target discovery times and time-to-all-found.
// ---------------------------------------------------------------------------

TEST(TargetProcess, CollectAllRecordsPerTargetTimes) {
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}, Point{5, 0}};
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 5.0);  // time-to-ALL-found
  ASSERT_EQ(r.target_times.size(), 2u);
  EXPECT_EQ(r.target_times[0], 2.0);
  EXPECT_EQ(r.target_times[1], 5.0);
  EXPECT_EQ(r.first_target, 0);
}

TEST(TargetProcess, CollectAllCensorsUnfoundTargets) {
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}, Point{0, 50}};  // the east walker never turns
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 30;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 30.0);
  ASSERT_EQ(r.target_times.size(), 2u);
  EXPECT_EQ(r.target_times[0], 2.0);
  EXPECT_EQ(r.target_times[1], -1.0);
}

// ---------------------------------------------------------------------------
// Batch executor: dynamic environments run natively in the batch SoA path —
// byte-identical to the scalar reference at every forced SIMD level, with
// the fallback counter pinned at zero so the tests fail if routing ever
// regresses to delegation.
// ---------------------------------------------------------------------------

class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(sim::batch::active_simd_level()) {}
  ~SimdLevelGuard() { sim::batch::force_simd_level(saved_); }

 private:
  sim::batch::SimdLevel saved_;
};

TEST(TargetProcess, BatchRunnerMatchesScalarOnDynamicEnvs) {
  using sim::batch::SimdLevel;
  const baselines::RandomWalkStrategy rw;
  const core::KnownKStrategy known(3);

  // Each seed realizes fresh environments from the trial seed, so sixteen
  // seeds sweep zero-spawn, mid-trial appearance, vanish-before-found, and
  // multi-target realizations across every dynamic axis pairing.
  const sim::TargetProcess poisson =
      sim::poisson_targets(0.02, 300.0, sim::uniform_ring_placement());
  const sim::TargetProcess drift =
      sim::drifting_target(0.5, 0.125, sim::uniform_ring_placement());

  EngineConfig config;
  config.time_cap = 400;

  SimdLevelGuard guard;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    sim::batch::force_simd_level(level);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const rng::Rng trial_rng(rng::mix_seed(0xD15EA5E, seed));
      const auto realize = [&](const sim::TargetProcess& process) {
        TrialEnvironment env;
        rng::Rng realize_rng(trial_rng.seed());
        process.grid(realize_rng, 3, config.time_cap, &env);
        return env;
      };

      // Step backend: windows, drift, dwell, collect-all, and pairings.
      std::vector<TrialEnvironment> step_envs;
      step_envs.push_back(realize(poisson));
      step_envs.push_back(realize(poisson));
      step_envs.back().capture_dwell = 1;
      step_envs.push_back(realize(poisson));
      step_envs.back().collect_all = true;
      step_envs.push_back(realize(drift));
      step_envs.push_back(realize(drift));
      step_envs.back().capture_dwell = 2;
      step_envs.push_back(realize(drift));
      step_envs.back().collect_all = true;
      for (const TrialEnvironment& env : step_envs) {
        sim::TrialStrategy s;
        s.step = &rw;
        sim::batch::BatchRunner runner(s, 2, config);
        expect_same_result(runner.run_one(env, trial_rng),
                           run_trial(rw, 2, env, trial_rng, config));
        // The batch path must actually run: grid cells never delegate.
        EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
      }

      // Segment backend: windows first-of-set and windows + collect-all.
      for (const bool collect : {false, true}) {
        TrialEnvironment env = realize(poisson);
        env.collect_all = collect;
        sim::TrialStrategy s;
        s.segment = &known;
        sim::batch::BatchRunner runner(s, 3, config);
        expect_same_result(runner.run_one(env, trial_rng),
                           run_trial(known, 3, env, trial_rng, config));
        EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
      }
    }
  }
}

TEST(TargetProcess, BatchRunnerMatchesScalarOnDynamicEnvsAtLargeK) {
  // Windowed first-of-set and collect-all segment cells at k = 64, where
  // many agents race for the same short-lived targets.
  using sim::batch::SimdLevel;
  constexpr int kAgents = 64;
  const core::KnownKStrategy known(kAgents);
  const core::HarmonicStrategy harmonic(0.5);
  const sim::TargetProcess poisson =
      sim::poisson_targets(0.05, 200.0, sim::uniform_ring_placement());
  EngineConfig config;
  config.time_cap = 600;

  SimdLevelGuard guard;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    sim::batch::force_simd_level(level);
    for (const sim::Strategy* strategy :
         {static_cast<const sim::Strategy*>(&known),
          static_cast<const sim::Strategy*>(&harmonic)}) {
      sim::TrialStrategy s;
      s.segment = strategy;
      sim::batch::BatchRunner runner(s, kAgents, config);
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const rng::Rng trial_rng(rng::mix_seed(0x1A26E64, seed));
        for (const bool collect : {false, true}) {
          TrialEnvironment env;
          rng::Rng realize_rng(trial_rng.seed());
          poisson.grid(realize_rng, 6, config.time_cap, &env);
          env = sim::draw_environment(kAgents, std::move(env),
                                      sim::StaggeredStart(2),
                                      sim::ExponentialLifetime(400.0),
                                      trial_rng);
          env.collect_all = collect;
          expect_same_result(
              runner.run_one(env, trial_rng),
              run_trial(*strategy, kAgents, env, trial_rng, config));
        }
      }
      EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
    }
  }
}

TEST(TargetProcess, BatchRunnerMatchesOriginArrivalTiesAcrossEpochs) {
  // Target A sits on the origin and appears at T = x + 1; agent 0 wakes up
  // on it at T after two zero-duration spirals. Target B at (x, 1) falls to
  // agent 1 at T, from a segment starting at x. Whether agent 0's first
  // segments run before agent 1's segment depends on where the executor's
  // scheduling boundaries fall, so x sweeps a range: the heap counts agent
  // 0's first segment at T only in collect-all mode (target A is still open
  // there), never its later ones, and in the first-find race it credits
  // agent 1.
  for (std::int64_t x = 4; x <= 120; ++x) {
    const testing::PerAgentScriptedStrategy scripts(
        {{sim::SpiralFor{0}, sim::SpiralFor{0}, sim::GoTo{Point{0, -9}}},
         {sim::GoTo{Point{x, 0}}, sim::GoTo{Point{x, 2}}}});
    sim::TrialStrategy s;
    s.segment = &scripts;
    for (const bool collect : {false, true}) {
      TrialEnvironment env;
      env.targets = {Point{0, 0}, Point{x, 1}};
      env.target_appear = {static_cast<double>(x + 1), 0.0};
      env.target_vanish = {1e9, 1e9};
      env.starts = {x + 1, 0};
      env.collect_all = collect;
      EngineConfig config;
      config.time_cap = 1000;
      const rng::Rng trial_rng(9);
      const TrialResult want = run_trial(scripts, 2, env, trial_rng, config);
      EXPECT_EQ(want.finder, collect ? 0 : 1);
      sim::batch::BatchRunner runner(s, 2, config);
      expect_same_result(runner.run_one(env, trial_rng), want);
      if (::testing::Test::HasFailure()) {
        FAIL() << "x = " << x << (collect ? " collect-all" : " first-find");
      }
    }
  }
}

/// Runs one plane trial through plane::run_plane_trial (via run_trial) and
/// through BatchRunner::run_one at every forced dispatch level: the same
/// result, or the same segment-budget error, with no scalar delegation.
void expect_plane_batch_matches(const plane::PlaneStrategy& strategy, int k,
                                const TrialEnvironment& env,
                                const EngineConfig& config,
                                const rng::Rng& trial_rng) {
  using sim::batch::SimdLevel;
  bool want_threw = false;
  TrialResult want;
  try {
    want = run_trial(strategy, k, env, trial_rng, config);
  } catch (const std::runtime_error&) {
    want_threw = true;
  }
  sim::TrialStrategy s;
  s.plane = &strategy;
  SimdLevelGuard guard;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    sim::batch::force_simd_level(level);
    sim::batch::BatchRunner runner(s, k, config);
    bool got_threw = false;
    TrialResult got;
    try {
      got = runner.run_one(env, trial_rng);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    ASSERT_EQ(want_threw, got_threw) << sim::batch::simd_level_name(level);
    if (!want_threw) expect_same_result(want, got);
    EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
  }
}

TEST(TargetProcess, BatchRunnerMatchesScalarOnPlaneDynamicCells) {
  // The campaign's plane-dynamic cells and their neighbours: windowed
  // Poisson arrivals, a static pair raced to collect-all, and zero-spawn
  // realizations, in both collect modes, under staggered starts,
  // dead-on-arrival crashes and exponential lifetimes, at k from 1 to 64.
  const auto angle = scenario::make_plane_angle("ring");
  const sim::TargetProcess poisson =
      scenario::make_plane_targets("poisson(rate=0.01, life=1000)", angle);
  const sim::TargetProcess pair =
      scenario::make_plane_targets("pair(near=0.25)", angle);
  const sim::TargetProcess none = [] {  // a windowed process, no spawns
    sim::TargetProcess p;
    p.plane = [](rng::Rng&, std::int64_t, Time, TrialEnvironment* env) {
      env->windowed = true;
    };
    return p;
  }();
  const sim::SyncStart sync;
  const sim::StaggeredStart staggered(3);
  const sim::NoCrash no_crash;
  const sim::DoaCrash doa(0.3);
  const sim::ExponentialLifetime lifetimes(300.0);
  const struct {
    const sim::StartSchedule* schedule;
    const sim::CrashModel* crashes;
  } shapes[] = {{&sync, &no_crash},
                {&staggered, &no_crash},
                {&sync, &doa},
                {&staggered, &lifetimes}};
  EngineConfig config;
  config.time_cap = 1500;

  for (const int k : {1, 3, 16, 64}) {
    const plane::PlaneKnownKStrategy known(k);
    const plane::PlaneHarmonicStrategy harmonic(0.5);
    for (const plane::PlaneStrategy* strategy :
         {static_cast<const plane::PlaneStrategy*>(&known),
          static_cast<const plane::PlaneStrategy*>(&harmonic)}) {
      for (const sim::TargetProcess* process : {&poisson, &pair, &none}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          const rng::Rng trial_rng(rng::mix_seed(0x9D1A7E, seed * 131 + k));
          const auto& shape = shapes[seed - 1];
          for (const bool collect : {false, true}) {
            TrialEnvironment env;
            rng::Rng realize_rng(trial_rng.seed());
            process->plane(realize_rng, 8, config.time_cap, &env);
            env = sim::draw_environment(k, std::move(env), *shape.schedule,
                                        *shape.crashes, trial_rng);
            env.collect_all = collect;
            expect_plane_batch_matches(*strategy, k, env, config, trial_rng);
            if (::testing::Test::HasFailure()) {
              FAIL() << strategy->name() << " k=" << k << " seed=" << seed
                     << (collect ? " collect-all" : " first-find");
            }
          }
        }
      }
    }
  }
}

TEST(TargetProcess, BatchRunnerMatchesPlaneDynamicTies) {
  // Agents 0 and 1 walk to (x, 0), then north. Target A at (x, 0.5)
  // appears at T = x, exactly when their second moves start: both sight it
  // on a move's first point at the same time. Agent 2 walks north and
  // sights target B at (0, x + 1) at T too, past its move's first point.
  // Target C sits on the rim of agent 3's path (exactly eps off its line).
  // x sweeps the scheduling boundaries across the decisive time.
  for (int x = 4; x <= 120; x += 3) {
    const double xd = x;
    const testing::PerAgentScriptedPlaneStrategy scripts(
        {{plane::GoToPoint{{xd, 0.0}}, plane::GoToPoint{{xd, 8.0}}},
         {plane::GoToPoint{{xd, 0.0}}, plane::GoToPoint{{xd, 8.0}}},
         {plane::GoToPoint{{0.0, xd + 2.0}}},
         {plane::GoToPoint{{-2.0 * xd, 0.0}}}});
    for (const int k : {2, 3, 4}) {
      for (const bool collect : {false, true}) {
        TrialEnvironment env;
        env.plane_targets = {{xd, 0.5}, {0.0, xd + 1.0}, {-xd, 1.0}};
        env.target_appear = {xd, 0.0, 0.0};
        env.target_vanish = {1e9, 1e9, 1e9};
        env.collect_all = collect;
        EngineConfig config;
        config.time_cap = 1000;
        expect_plane_batch_matches(scripts, k, env, config, rng::Rng(5));
        if (::testing::Test::HasFailure()) {
          FAIL() << "x = " << x << " k = " << k
                 << (collect ? " collect-all" : " first-find");
        }
      }
    }
  }
}

TEST(TargetProcess, BatchRunnerMatchesPlaneFirstPointTieAfterAnEpoch) {
  // Collect-all. Target X at (10, 0.5) appears at T = 10. Agent 1's long
  // line is inside X's disc when the window opens, so it sights X at T
  // past its move's first point, in the executor's first scheduling round.
  // Agent 0 reaches (10, 0) at T and sights X on its next move's first
  // point; the heap runs that move (target Y is still open), so agent 0,
  // the lower index, is X's finder — the earlier equal-time sighting must
  // not make the batch skip X for agent 0's move.
  const testing::PerAgentScriptedPlaneStrategy scripts(
      {{plane::GoToPoint{{10.0, 0.0}}, plane::GoToPoint{{10.0, 8.0}}},
       {plane::GoToPoint{{20.0, 0.5}}}});
  TrialEnvironment env;
  env.plane_targets = {{10.0, 0.5}, {10.0, 6.0}};
  env.target_appear = {10.0, 0.0};
  env.target_vanish = {1e9, 1e9};
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 1000;
  const TrialResult want = run_trial(scripts, 2, env, rng::Rng(5), config);
  ASSERT_TRUE(want.found);
  EXPECT_EQ(want.first_target, 0);
  EXPECT_EQ(want.finder, 0);
  EXPECT_EQ(want.target_times[0], 10.0);
  expect_plane_batch_matches(scripts, 2, env, config, rng::Rng(5));
}

TEST(TargetProcess, BatchRunnerMatchesPlaneDynamicBudgetThrow) {
  // A small segment budget trips inside the race or around its decisive
  // time; both executors must agree on whether it throws.
  const plane::PlaneKnownKStrategy known(4);
  const sim::TargetProcess poisson = scenario::make_plane_targets(
      "poisson(rate=0.01, life=1000)", scenario::make_plane_angle("ring"));
  int threw = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::int64_t budget : {2, 5, 9, 20}) {
      for (const bool collect : {false, true}) {
        const rng::Rng trial_rng(rng::mix_seed(0xB0D6E7, seed));
        TrialEnvironment env;
        rng::Rng realize_rng(trial_rng.seed());
        poisson.plane(realize_rng, 8, 1500, &env);
        env = sim::draw_environment(4, std::move(env), sim::StaggeredStart(2),
                                    sim::NoCrash(), trial_rng);
        env.collect_all = collect;
        EngineConfig config;
        config.time_cap = 1500;
        config.max_segments_per_agent = budget;
        try {
          run_trial(known, 4, env, trial_rng, config);
        } catch (const std::runtime_error&) {
          ++threw;
        }
        expect_plane_batch_matches(known, 4, env, config, trial_rng);
      }
    }
  }
  EXPECT_GT(threw, 0);  // the budget really does trip in some trials
}

// ---------------------------------------------------------------------------
// Scenario layer: cache keys and cached aggregates.
// ---------------------------------------------------------------------------

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "target-process-test";
  spec.strategies = {"random-walk"};
  spec.ks = {2};
  spec.distances = {2};
  spec.trials = 4;
  spec.seed = 51;
  spec.time_cap = 300;
  return spec;
}

TEST(TargetProcess, CaptureAndCollectAreCacheKeyAxes) {
  const scenario::ScenarioSpec base = small_spec();
  scenario::ScenarioSpec dwell = base;
  dwell.capture = "dwell(t=1)";
  scenario::ScenarioSpec all = base;
  all.collect = "all";

  const std::uint64_t base_hash = scenario::flatten(base)[0].hash;
  const std::uint64_t dwell_hash = scenario::flatten(dwell)[0].hash;
  const std::uint64_t all_hash = scenario::flatten(all)[0].hash;
  EXPECT_NE(base_hash, dwell_hash);
  EXPECT_NE(base_hash, all_hash);
  EXPECT_NE(dwell_hash, all_hash);

  // Equivalent spellings of the same capture policy key identically.
  scenario::ScenarioSpec dwell_spaced = base;
  dwell_spaced.capture = "dwell( t = 1 )";
  EXPECT_EQ(dwell_hash, scenario::flatten(dwell_spaced)[0].hash);
}

TEST(TargetProcess, TargetAggregatesSurviveCacheRoundTrip) {
  scenario::ScenarioSpec spec = small_spec();
  spec.targets = {"poisson(rate=0.05, life=200)"};
  spec.capture = "dwell(t=1)";
  spec.collect = "all";

  const std::string cache_dir =
      ::testing::TempDir() + "ants_target_process_cache";
  std::filesystem::remove_all(cache_dir);
  scenario::SweepOptions opt;
  opt.threads = 1;
  opt.cache_dir = cache_dir;

  const std::vector<scenario::CellResult> first = run_sweep(spec, opt);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].from_cache);

  const std::vector<scenario::CellResult> second = run_sweep(spec, opt);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].from_cache);

  EXPECT_EQ(first[0].stats.time.mean, second[0].stats.time.mean);
  EXPECT_EQ(first[0].mean_targets_found, second[0].mean_targets_found);
  EXPECT_EQ(first[0].mean_targets_spawned, second[0].mean_targets_spawned);
  EXPECT_EQ(first[0].found_before_vanish, second[0].found_before_vanish);
  for (std::size_t j = 0; j < scenario::CellResult::kTargetTimeSlots; ++j) {
    EXPECT_EQ(first[0].target_time_mean[j], second[0].target_time_mean[j]);
  }
  // The spec spawned targets somewhere across the cell's trials, so the
  // aggregates are live numbers, not the -1 inert markers.
  EXPECT_GE(first[0].mean_targets_spawned, 0.0);
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace ants

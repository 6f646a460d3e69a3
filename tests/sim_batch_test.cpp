// The batch trial executor (sim/batch/).
//
// The contract under test is byte-identity: for every strategy family,
// environment shape, and SIMD dispatch level this machine supports,
// BatchRunner::run_one must reproduce sim::run_trial EXACTLY — same doubles
// bit for bit, same finder/target tie-breaks, same crash and segment counts,
// the same segment-budget errors. The kernel unit tests pin the primitives'
// scalar-equivalence properties (in-order occupancy find, candidate
// supersets) at every level, including the non-multiple-of-width tails.
#include "sim/batch/batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <stdexcept>
#include <vector>

#include "baselines/random_walk.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "plane/strategies.h"
#include "rng/rng.h"
#include "sim/batch/kernels.h"
#include "sim/batch/simd.h"
#include "sim/trial.h"
#include "test_support.h"
#include "util/sat.h"

namespace ants::sim::batch {
namespace {

/// Every dispatch level this machine can actually run.
std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the active level when a test that forces levels exits.
struct LevelGuard {
  ~LevelGuard() { force_simd_level(detected_simd_level()); }
};

#define EXPECT_SAME_RESULT(expected, actual)                       \
  do {                                                             \
    EXPECT_EQ((expected).time, (actual).time);                     \
    EXPECT_EQ((expected).found, (actual).found);                   \
    EXPECT_EQ((expected).finder, (actual).finder);                 \
    EXPECT_EQ((expected).first_target, (actual).first_target);     \
    EXPECT_EQ((expected).segments, (actual).segments);             \
    EXPECT_EQ((expected).last_start, (actual).last_start);         \
    EXPECT_EQ((expected).from_last_start, (actual).from_last_start); \
    EXPECT_EQ((expected).crashed, (actual).crashed);               \
  } while (0)

// --- kernel unit tests -----------------------------------------------------

TEST(BatchKernels, FindPointReturnsFirstMatchInOrder) {
  rng::Rng rng(7);
  const Kernels& scalar = kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 24; ++n) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<std::int64_t> xs(n), ys(n);
        for (std::size_t i = 0; i < n; ++i) {
          xs[i] = rng.uniform_int(-1, 1);
          ys[i] = rng.uniform_int(-1, 1);
        }
        const std::int64_t px = rng.uniform_int(-1, 1);
        const std::int64_t py = rng.uniform_int(-1, 1);
        EXPECT_EQ(scalar.find_point(xs.data(), ys.data(), n, px, py),
                  k.find_point(xs.data(), ys.data(), n, px, py))
            << simd_level_name(level) << " n=" << n;
      }
    }
  }
}

TEST(BatchKernels, FindPointMissReturnsNpos) {
  const std::vector<std::int64_t> xs = {1, 2, 3, 4, 5};
  const std::vector<std::int64_t> ys = {1, 2, 3, 4, 5};
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    EXPECT_EQ(k.find_point(xs.data(), ys.data(), xs.size(), 3, 4), kNpos);
    EXPECT_EQ(k.find_point(xs.data(), ys.data(), xs.size(), 4, 4), 3u);
  }
}

TEST(BatchKernels, LineCandidatesMatchScalarExactly) {
  rng::Rng rng(1234);
  const Kernels& scalar = kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (std::size_t n = 1; n <= 21; ++n) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<double> tx(n), ty(n);
        for (std::size_t i = 0; i < n; ++i) {
          tx[i] = rng.uniform_real(-20.0, 20.0);
          ty[i] = rng.uniform_real(-20.0, 20.0);
        }
        const double fx = rng.uniform_real(-5.0, 5.0);
        const double fy = rng.uniform_real(-5.0, 5.0);
        const double ang = rng.angle();
        const double ux = std::cos(ang), uy = std::sin(ang);
        const double eps = rng.uniform_real(0.5, 1.5);
        std::vector<std::uint32_t> want(n), got(n);
        const std::size_t nw =
            scalar.line_candidates(tx.data(), ty.data(), n, fx, fy, ux, uy,
                                   eps, want.data());
        const std::size_t ng = k.line_candidates(tx.data(), ty.data(), n, fx,
                                                 fy, ux, uy, eps, got.data());
        ASSERT_EQ(nw, ng) << simd_level_name(level) << " n=" << n;
        for (std::size_t i = 0; i < nw; ++i) {
          EXPECT_EQ(want[i], got[i]) << simd_level_name(level) << " n=" << n;
        }
      }
    }
  }
}

TEST(BatchKernels, LineCandidatesAreSupersetOfSightings) {
  // Every target the scalar hit test sights must survive the prefilter.
  rng::Rng rng(555);
  for (const SimdLevel level : testable_levels()) {
    const Kernels& k = kernels_for(level);
    for (int rep = 0; rep < 200; ++rep) {
      const plane::Vec2 from{rng.uniform_real(-5.0, 5.0),
                             rng.uniform_real(-5.0, 5.0)};
      const plane::Vec2 to{rng.uniform_real(-15.0, 15.0),
                           rng.uniform_real(-15.0, 15.0)};
      const plane::LineMove line{from, to};
      const plane::Vec2 d = to - from;
      const double len = d.norm();
      if (len == 0.0) continue;
      const double inv = 1.0 / len;
      const std::size_t n = 9;
      std::vector<double> tx(n), ty(n);
      for (std::size_t i = 0; i < n; ++i) {
        tx[i] = rng.uniform_real(-15.0, 15.0);
        ty[i] = rng.uniform_real(-15.0, 15.0);
      }
      std::vector<std::uint32_t> cand(n);
      const std::size_t nc =
          k.line_candidates(tx.data(), ty.data(), n, from.x, from.y,
                            d.x * inv, d.y * inv, 1.0, cand.data());
      for (std::size_t i = 0; i < n; ++i) {
        const auto hit =
            plane::line_first_sighting(line, {tx[i], ty[i]}, 1.0);
        if (!hit) continue;
        bool present = false;
        for (std::size_t c = 0; c < nc; ++c) present |= (cand[c] == i);
        EXPECT_TRUE(present) << simd_level_name(level) << " target " << i;
      }
    }
  }
}

// --- executor conformance --------------------------------------------------

/// Runs `trials` trials of strategy/env-draw under both executors at every
/// supported dispatch level and demands byte-identical results.
void expect_conformance(const TrialStrategy& strategy, int k,
                        const std::function<TrialEnvironment(const rng::Rng&)>&
                            env_of_trial,
                        const EngineConfig& config, int trials,
                        std::uint64_t seed) {
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(strategy, k, config);
    ASSERT_EQ(runner.level(), level);
    for (int t = 0; t < trials; ++t) {
      const rng::Rng trial_rng(
          rng::mix_seed(seed, static_cast<std::uint64_t>(t)));
      const TrialEnvironment env = env_of_trial(trial_rng);
      const TrialResult want = run_trial(strategy, k, env, trial_rng, config);
      const TrialResult got = runner.run_one(env, trial_rng);
      EXPECT_SAME_RESULT(want, got);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at level " << simd_level_name(level) << " trial "
               << t;
      }
    }
  }
}

TrialEnvironment base_env(std::vector<grid::Point> targets) {
  TrialEnvironment env;
  env.targets = std::move(targets);
  return env;
}

TEST(BatchRunnerSegment, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  const core::KnownKStrategy known(5);
  const core::HarmonicStrategy harmonic(0.3);
  TrialStrategy sk;
  sk.segment = &known;
  TrialStrategy sh;
  sh.segment = &harmonic;
  EngineConfig config;
  config.time_cap = 200'000;

  const std::vector<grid::Point> targets = {{11, -5}, {-7, 3}};
  const auto sync = [&](const rng::Rng&) { return base_env(targets); };
  const auto drawn = [&](const rng::Rng& trial_rng) {
    return draw_environment(5, targets, StaggeredStart(7),
                            ExponentialLifetime(500.0), trial_rng);
  };
  const auto doa = [&](const rng::Rng& trial_rng) {
    return draw_environment(5, targets, UniformRandomStart(20), DoaCrash(0.4),
                            trial_rng);
  };
  expect_conformance(sk, 5, sync, config, 40, 101);
  expect_conformance(sk, 5, drawn, config, 40, 102);
  expect_conformance(sh, 5, drawn, config, 40, 103);
  expect_conformance(sh, 5, doa, config, 40, 104);
}

TEST(BatchRunnerSegment, OriginTargetAndAllDoaEdgeCases) {
  const core::KnownKStrategy known(3);
  TrialStrategy s;
  s.segment = &known;
  EngineConfig config;
  config.time_cap = 10'000;

  // Origin in the target set, mixed DOA agents.
  const auto origin_env = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{5, 5}, grid::kOrigin});
    env.starts = {4, 2, 9};
    env.lifetimes = {0, 100, kNeverTime};
    return env;
  };
  // Everybody dead on arrival.
  const auto all_doa = [&](const rng::Rng&) {
    TrialEnvironment env = base_env({{3, 1}});
    env.lifetimes = {0, 0, 0};
    return env;
  };
  expect_conformance(s, 3, origin_env, config, 8, 7);
  expect_conformance(s, 3, all_doa, config, 8, 8);
}

TEST(BatchRunnerStep, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  const baselines::RandomWalkStrategy rw;
  TrialStrategy s;
  s.step = &rw;
  EngineConfig config;
  config.time_cap = 3'000;

  const std::vector<grid::Point> targets = {{4, 0}, {0, -4}};
  const auto sync = [&](const rng::Rng&) { return base_env(targets); };
  const auto drawn = [&](const rng::Rng& trial_rng) {
    return draw_environment(4, targets, StaggeredStart(2), FixedLifetime(800),
                            trial_rng);
  };
  const auto doa = [&](const rng::Rng& trial_rng) {
    return draw_environment(4, targets, SyncStart(), DoaCrash(0.5),
                            trial_rng);
  };
  expect_conformance(s, 4, sync, config, 30, 201);
  expect_conformance(s, 4, drawn, config, 30, 202);
  expect_conformance(s, 4, doa, config, 30, 203);
}

TEST(BatchRunnerPlane, MatchesRunTrialAcrossEnvironmentsAndLevels) {
  const plane::PlaneKnownKStrategy known(4);
  const plane::PlaneHarmonicStrategy harmonic(0.3);
  TrialStrategy sk;
  sk.plane = &known;
  TrialStrategy sh;
  sh.plane = &harmonic;
  EngineConfig config;
  config.time_cap = 1'000'000;

  const auto plane_env = [&](std::vector<plane::Vec2> targets) {
    TrialEnvironment env;
    env.plane_targets = std::move(targets);
    return env;
  };
  const std::vector<plane::Vec2> targets = {{12.0, -3.0}, {-6.0, 8.0}};
  const auto sync = [&](const rng::Rng&) { return plane_env(targets); };
  const auto drawn = [&](const rng::Rng& trial_rng) {
    return draw_environment(4, plane_env(targets), StaggeredStart(5),
                            ExponentialLifetime(300.0), trial_rng);
  };
  const auto doa = [&](const rng::Rng& trial_rng) {
    return draw_environment(4, plane_env(targets), UniformRandomStart(9),
                            DoaCrash(0.4), trial_rng);
  };
  expect_conformance(sk, 4, sync, config, 25, 301);
  expect_conformance(sk, 4, drawn, config, 25, 302);
  expect_conformance(sh, 4, drawn, config, 25, 303);
  expect_conformance(sh, 4, doa, config, 25, 304);
}

TEST(BatchRunnerPlane, HomeTargetAndAllDoaEdgeCases) {
  const plane::PlaneKnownKStrategy known(3);
  TrialStrategy s;
  s.plane = &known;
  EngineConfig config;
  config.time_cap = 100'000;

  // One target inside the home sight disc, one agent dead on arrival.
  const auto home_env = [&](const rng::Rng&) {
    TrialEnvironment env;
    env.plane_targets = {{20.0, 0.0}, {0.3, -0.4}};
    env.starts = {6, 1, 3};
    env.lifetimes = {kNeverTime, 0, 500};
    return env;
  };
  const auto all_doa = [&](const rng::Rng&) {
    TrialEnvironment env;
    env.plane_targets = {{9.0, 9.0}};
    env.lifetimes = {0, 0, 0};
    return env;
  };
  expect_conformance(s, 3, home_env, config, 6, 401);
  expect_conformance(s, 3, all_doa, config, 6, 402);
}

// --- large-k conformance ---------------------------------------------------
//
// The paper's E3/E1 cells run at k = 256..1024, where the advance loop's
// bookkeeping is under the most pressure. Three targets at equal L1
// distance force finder and first_target ties; the fixed lifetime below the
// target distance kills every agent mid-run.

TEST(BatchRunnerSegment, LargeKMatchesRunTrial) {
  const core::UniformStrategy uniform(0.3);
  const core::HarmonicStrategy harmonic(0.5);
  const std::vector<grid::Point> targets = {{9, 3}, {-3, -9}, {6, -6}};
  for (const int k : {17, 64, 256, 1024}) {
    const core::KnownKStrategy known(k);
    TrialStrategy su;
    su.segment = &uniform;
    TrialStrategy sh;
    sh.segment = &harmonic;
    TrialStrategy sk;
    sk.segment = &known;
    EngineConfig config;
    config.time_cap = 5'000;

    const auto sync = [&](const rng::Rng&) { return base_env(targets); };
    const auto staggered = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, StaggeredStart(3),
                              ExponentialLifetime(300.0), trial_rng);
    };
    const auto doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, UniformRandomStart(10),
                              DoaCrash(0.3), trial_rng);
    };
    const auto kill_all = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, targets, SyncStart(), FixedLifetime(10),
                              trial_rng);
    };
    const int trials = k >= 1024 ? 1 : k >= 256 ? 2 : 4;
    const auto seed = static_cast<std::uint64_t>(1000 + k);
    for (const TrialStrategy* s : {&su, &sh, &sk}) {
      expect_conformance(*s, k, sync, config, trials, seed);
      expect_conformance(*s, k, staggered, config, trials, seed + 1);
      expect_conformance(*s, k, doa, config, trials, seed + 2);
      expect_conformance(*s, k, kill_all, config, trials, seed + 3);
    }
  }
}

TEST(BatchRunnerPlane, LargeKMatchesRunTrial) {
  const plane::PlaneHarmonicStrategy harmonic(0.3);
  const std::vector<plane::Vec2> targets = {{10.0, 0.0}, {0.0, -10.0}};
  for (const int k : {17, 64}) {
    const plane::PlaneKnownKStrategy known(k);
    TrialStrategy sk;
    sk.plane = &known;
    TrialStrategy sh;
    sh.plane = &harmonic;
    EngineConfig config;
    config.time_cap = 20'000;

    const auto plane_env = [&](const rng::Rng&) {
      TrialEnvironment env;
      env.plane_targets = targets;
      return env;
    };
    const auto staggered = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, plane_env(trial_rng), StaggeredStart(2),
                              ExponentialLifetime(200.0), trial_rng);
    };
    const auto doa = [&](const rng::Rng& trial_rng) {
      return draw_environment(k, plane_env(trial_rng), UniformRandomStart(6),
                              DoaCrash(0.3), trial_rng);
    };
    const auto seed = static_cast<std::uint64_t>(2000 + k);
    for (const TrialStrategy* s : {&sk, &sh}) {
      expect_conformance(*s, k, plane_env, config, 4, seed);
      expect_conformance(*s, k, staggered, config, 4, seed + 1);
      expect_conformance(*s, k, doa, config, 4, seed + 2);
    }
  }
}

// --- segment budget ---------------------------------------------------------

/// run_one must throw the segment-budget error exactly when run_trial does,
/// and otherwise return the identical result.
void expect_same_outcome_or_throw(const TrialStrategy& strategy, int k,
                                  const TrialEnvironment& env,
                                  const EngineConfig& config,
                                  std::uint64_t seed) {
  const rng::Rng trial_rng(seed);
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(strategy, k, config);
    bool want_threw = false;
    TrialResult want;
    try {
      want = run_trial(strategy, k, env, trial_rng, config);
    } catch (const std::runtime_error&) {
      want_threw = true;
    }
    bool got_threw = false;
    TrialResult got;
    try {
      got = runner.run_one(env, trial_rng);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    ASSERT_EQ(want_threw, got_threw)
        << simd_level_name(level) << " seed " << seed;
    if (!want_threw) EXPECT_SAME_RESULT(want, got);
  }
}

TEST(BatchRunnerSegment, BudgetThrowParityWhenEveryStartIsNever) {
  // Every clock sits at kNeverTime from the start: the heap still pops the
  // lowest-index agent over and over, so the budget must trip.
  const testing::ScriptedStrategy parked({});
  TrialStrategy s;
  s.segment = &parked;
  EngineConfig config;
  config.max_segments_per_agent = 5;
  TrialEnvironment env = base_env({{4, 4}});
  env.starts = {kNeverTime, kNeverTime, kNeverTime};
  expect_same_outcome_or_throw(s, 3, env, config, 11);
  EXPECT_THROW(run_trial(s, 3, env, rng::Rng(11), config), std::runtime_error);

  // Same environment under a finite cap: nobody ever acts, no throw.
  config.time_cap = 1'000;
  expect_same_outcome_or_throw(s, 3, env, config, 12);
}

TEST(BatchRunnerSegment, BudgetThrowParityAroundTheDecidedRace) {
  // Agent 0 parks forever in two-tick segments (starts 0, 2, 4, ...).
  // Agent 1 walks out to (x, 0), then steps onto the target at (x, 1): the
  // race is decided at time x + 1, from a segment starting at x. Agent 0's
  // (budget + 1)-th segment starts at 2 * budget, so with 2 * budget <= x
  // both executors must throw, and with 2 * budget > x neither may — even
  // though agent 0, the lower index, may run past x before agent 1's hit is
  // known.
  for (std::int64_t x = 40; x <= 160; x += 2) {
    const testing::PerAgentScriptedStrategy scripts(
        {{}, {GoTo{grid::Point{x, 0}}, GoTo{grid::Point{x, 2}}}});
    TrialStrategy s;
    s.segment = &scripts;
    const TrialEnvironment env = base_env({{x, 1}});
    for (const std::int64_t budget : {x / 2, x / 2 + 1}) {
      EngineConfig config;
      config.max_segments_per_agent = budget;
      expect_same_outcome_or_throw(s, 2, env, config,
                                   static_cast<std::uint64_t>(x));
      const bool throws = 2 * budget <= x;
      if (throws) {
        EXPECT_THROW(run_trial(s, 2, env, rng::Rng(1), config),
                     std::runtime_error);
      } else {
        EXPECT_TRUE(run_trial(s, 2, env, rng::Rng(1), config).found);
      }
    }
  }
}

TEST(BatchRunnerSegment, SaturatedClocksMatchRunTrial) {
  // Starting just below util::kTimeCap, an agent's clock saturates after one
  // segment: every later segment starts at kTimeCap and every later hit
  // lands on kTimeCap too, so several of one agent's segments start at the
  // decisive time before the one that finds the target. (The harmonic
  // strategy's heavy-tailed spiral budgets reach this regime at k = 1.)
  const Time near_cap = util::kTimeCap - 10;
  const testing::PerAgentScriptedStrategy scripts(
      {{GoTo{grid::Point{20, 0}}, GoTo{grid::Point{20, 5}},
        GoTo{grid::Point{3, 3}}},
       {GoTo{grid::Point{0, 30}}, GoTo{grid::Point{3, 30}},
        GoTo{grid::Point{3, 3}}}});
  TrialStrategy s;
  s.segment = &scripts;
  for (const int mode : {0, 1, 2}) {  // static, windows, collect all
    for (const int k : {1, 2, 3}) {
      TrialEnvironment env = base_env({{3, 3}, {20, 4}});
      for (int a = 0; a < k; ++a) env.starts.push_back(near_cap - a);
      if (mode > 0) {
        env.target_appear = {0.0, 0.0};
        env.target_vanish = {1e300, 1e300};
      }
      env.collect_all = mode == 2;
      expect_same_outcome_or_throw(s, k, env, EngineConfig{},
                                   static_cast<std::uint64_t>(10 * mode + k));
    }
  }

  // Agent 1 reaches (0, 15) at kTimeCap from a segment that starts before
  // it; agent 0 reaches (30, 5) at kTimeCap from a segment starting at
  // kTimeCap. The heap runs agent 1's segment first and never agent 0's,
  // so the higher index wins the tie.
  const testing::PerAgentScriptedStrategy tie_scripts(
      {{GoTo{grid::Point{30, 0}}, GoTo{grid::Point{30, 20}}},
       {GoTo{grid::Point{0, 30}}}});
  TrialStrategy ts;
  ts.segment = &tie_scripts;
  TrialEnvironment env = base_env({{0, 15}, {30, 5}});
  env.starts = {util::kTimeCap - 20, util::kTimeCap - 10};
  const TrialResult want = run_trial(ts, 2, env, rng::Rng(1), EngineConfig{});
  EXPECT_EQ(want.finder, 1);
  expect_same_outcome_or_throw(ts, 2, env, EngineConfig{}, 1);
}

TEST(BatchRunnerSegment, BudgetThrowParityForAStalledAgent) {
  // Agent 0 wakes up at t = 12 and then spins on zero-length spirals
  // forever; agent 1 reaches the target at t = 12 from a segment starting
  // at t = 11. The heap never runs agent 0, so neither executor may throw
  // — even though agent 0, the lower index, may stall through its whole
  // budget before agent 1's hit is known. Starting agent 0 at t = 11
  // instead puts its stall inside the race, and both must throw.
  std::vector<Op> stall(64, SpiralFor{0});
  const testing::PerAgentScriptedStrategy scripts(
      {stall, {GoTo{grid::Point{11, 0}}, GoTo{grid::Point{11, 2}}}});
  TrialStrategy s;
  s.segment = &scripts;
  EngineConfig config;
  config.max_segments_per_agent = 60;
  for (const Time wake : {Time{12}, Time{11}}) {
    TrialEnvironment env = base_env({{11, 1}});
    env.starts = {wake, 0};
    expect_same_outcome_or_throw(s, 2, env, config, 5);
    if (wake == 12) {
      EXPECT_TRUE(run_trial(s, 2, env, rng::Rng(5), config).found);
    } else {
      EXPECT_THROW(run_trial(s, 2, env, rng::Rng(5), config),
                   std::runtime_error);
    }
  }
}

// --- randomized scripted races ----------------------------------------------
//
// Agents that wander a tiny board with random ops (zero-duration ops and
// revisits included) over a handful of targets produce every tie the
// executors must break identically: equal hit times across agents and
// targets, hits at a segment's very first node, agents crashing or running
// out of budget around the decisive hit, targets appearing while an agent
// stands on them.

class RandomOpsStrategy final : public Strategy {
 public:
  std::string name() const override { return "random-ops"; }
  std::unique_ptr<AgentProgram> make_program(AgentContext) const override {
    class P final : public AgentProgram {
     public:
      Op next(rng::Rng& rng) override {
        switch (rng.uniform_int(0, 5)) {
          case 0:
            pos_ = grid::kOrigin;
            return ReturnToSource{};
          case 1: {
            const Time d = rng.uniform_int(0, 9);
            pos_ = pos_ + grid::spiral_point(d);
            return SpiralFor{d};
          }
          case 2: {
            FollowPath fp;
            const auto n = rng.uniform_int(0, 6);
            for (std::int64_t i = 0; i < n; ++i) {
              const auto dir = rng.uniform_int(0, 3);
              pos_ = pos_ + grid::Point{dir == 0 ? 1 : dir == 1 ? -1 : 0,
                                        dir == 2 ? 1 : dir == 3 ? -1 : 0};
              fp.steps.push_back(pos_);
            }
            return fp;
          }
          default:
            pos_ = grid::Point{rng.uniform_int(-4, 4), rng.uniform_int(-4, 4)};
            return GoTo{pos_};
        }
      }

     private:
      grid::Point pos_ = grid::kOrigin;
    };
    return std::make_unique<P>();
  }
};

TEST(BatchRunnerSegment, RandomScriptedRacesMatchRunTrial) {
  const RandomOpsStrategy random_ops;
  TrialStrategy s;
  s.segment = &random_ops;
  rng::Rng draw(20261018);
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = static_cast<int>(draw.uniform_int(1, 12));
    const auto uk = static_cast<std::size_t>(k);
    const int mode = trial % 3;  // 0 static, 1 windows first, 2 collect all
    TrialEnvironment env;
    const auto nt = draw.uniform_int(mode == 0 ? 1 : 0, 4);
    for (std::int64_t i = 0; i < nt; ++i) {
      // The static path resolves origin targets up front; keep them off it.
      grid::Point p{draw.uniform_int(-3, 3), draw.uniform_int(-3, 3)};
      if (mode == 0 && p == grid::kOrigin) p = grid::Point{1, 0};
      env.targets.push_back(p);
      if (mode != 0) {
        const double appear = static_cast<double>(draw.uniform_int(0, 30));
        env.target_appear.push_back(appear);
        const auto life = static_cast<double>(draw.uniform_int(1, 60));
        env.target_vanish.push_back(appear + life);
      }
    }
    env.windowed = mode != 0;
    env.collect_all = mode == 2;
    if (draw.uniform_int(0, 1) == 1) {
      for (std::size_t a = 0; a < uk; ++a) {
        env.starts.push_back(draw.uniform_int(0, 12));
      }
    }
    if (draw.uniform_int(0, 1) == 1) {
      for (std::size_t a = 0; a < uk; ++a) {
        env.lifetimes.push_back(draw.uniform_int(0, 3) == 0
                                    ? kNeverTime
                                    : draw.uniform_int(0, 60));
      }
    }
    EngineConfig config;
    config.time_cap = draw.uniform_int(20, 120);
    if (draw.uniform_int(0, 2) == 0) {
      config.max_segments_per_agent = draw.uniform_int(1, 30);
    }
    expect_same_outcome_or_throw(s, k, env, config,
                                 static_cast<std::uint64_t>(trial));
    if (::testing::Test::HasFailure()) FAIL() << "diverged at trial " << trial;
  }
}

class RandomPlaneOpsStrategy final : public plane::PlaneStrategy {
 public:
  std::string name() const override { return "random-plane-ops"; }
  std::unique_ptr<plane::PlaneAgentProgram> make_program(int,
                                                         int) const override {
    class P final : public plane::PlaneAgentProgram {
     public:
      plane::PlaneOp next(rng::Rng& rng) override {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            return plane::ReturnHome{};
          case 1:
            return plane::SpiralSweep{
                static_cast<double>(rng.uniform_int(0, 12))};
          default:
            // Integer coordinates make exact tie times likely.
            return plane::GoToPoint{
                plane::Vec2{static_cast<double>(rng.uniform_int(-4, 4)),
                            static_cast<double>(rng.uniform_int(-4, 4))}};
        }
      }
    };
    return std::make_unique<P>();
  }
};

TEST(BatchRunnerPlane, RandomScriptedRacesMatchRunTrial) {
  const RandomPlaneOpsStrategy random_ops;
  TrialStrategy s;
  s.plane = &random_ops;
  rng::Rng draw(20261019);
  for (int trial = 0; trial < 1500; ++trial) {
    const int k = static_cast<int>(draw.uniform_int(1, 12));
    const auto uk = static_cast<std::size_t>(k);
    TrialEnvironment env;
    const auto nt = draw.uniform_int(1, 5);
    for (std::int64_t i = 0; i < nt; ++i) {
      env.plane_targets.push_back(
          plane::Vec2{static_cast<double>(draw.uniform_int(-4, 4)),
                      static_cast<double>(draw.uniform_int(-4, 4))});
    }
    if (draw.uniform_int(0, 1) == 1) {
      for (std::size_t a = 0; a < uk; ++a) {
        env.starts.push_back(draw.uniform_int(0, 12));
      }
    }
    if (draw.uniform_int(0, 1) == 1) {
      for (std::size_t a = 0; a < uk; ++a) {
        env.lifetimes.push_back(draw.uniform_int(0, 3) == 0
                                    ? kNeverTime
                                    : draw.uniform_int(0, 60));
      }
    }
    EngineConfig config;
    config.time_cap = draw.uniform_int(20, 120);
    config.sight_radius = 0.5;
    if (draw.uniform_int(0, 2) == 0) {
      config.max_segments_per_agent = draw.uniform_int(1, 30);
    }
    expect_same_outcome_or_throw(s, k, env, config,
                                 static_cast<std::uint64_t>(trial));
    if (::testing::Test::HasFailure()) FAIL() << "diverged at trial " << trial;
  }
}

/// Replays a fixed plane op list per agent, then shuttles between home and
/// (-5, -5) forever.
class ScriptedPlaneStrategy final : public plane::PlaneStrategy {
 public:
  explicit ScriptedPlaneStrategy(std::vector<std::vector<plane::PlaneOp>> ops)
      : ops_(std::move(ops)) {}
  std::string name() const override { return "scripted-plane"; }
  std::unique_ptr<plane::PlaneAgentProgram> make_program(
      int agent, int) const override {
    class P final : public plane::PlaneAgentProgram {
     public:
      explicit P(std::vector<plane::PlaneOp> ops) : ops_(std::move(ops)) {}
      plane::PlaneOp next(rng::Rng&) override {
        if (i_ < ops_.size()) return ops_[i_++];
        out_ = !out_;
        if (out_) return plane::GoToPoint{plane::Vec2{-5.0, -5.0}};
        return plane::ReturnHome{};
      }

     private:
      std::vector<plane::PlaneOp> ops_;
      std::size_t i_ = 0;
      bool out_ = false;
    };
    return std::make_unique<P>(ops_[static_cast<std::size_t>(agent) %
                                    ops_.size()]);
  }

 private:
  std::vector<std::vector<plane::PlaneOp>> ops_;
};

TEST(BatchRunnerPlane, SightingOnAMovesFirstPointCountsLikeTheHeap) {
  // The line from (24, 4) ends inside the sight disc of the target at
  // (20, 0) — but on its rim, where the quadratic's root rounds past the
  // line's end, so the sighting only registers at the start of the NEXT
  // move. Agents 0 and 1 both make that sighting at the same time T; the
  // heap runs agent 0's next move, finds the target, and stops before
  // agent 1's. Agent 2 shuttles far away until then.
  const plane::Vec2 rim{20.92736430052042, -0.37415966394077271};
  const std::vector<plane::PlaneOp> approach = {
      plane::GoToPoint{plane::Vec2{24.0, 4.0}}, plane::GoToPoint{rim},
      plane::ReturnHome{}};
  const ScriptedPlaneStrategy scripts({approach, approach, {}});
  TrialStrategy s;
  s.plane = &scripts;
  TrialEnvironment env;
  env.plane_targets = {{20.0, 0.0}};
  EngineConfig config;
  config.time_cap = 1'000;
  const rng::Rng trial_rng(4);
  const TrialResult want = run_trial(s, 3, env, trial_rng, config);
  ASSERT_TRUE(want.found);
  EXPECT_EQ(want.finder, 0);
  EXPECT_EQ(want.time, plane::Vec2(24.0, 4.0).norm() +
                           (rim - plane::Vec2{24.0, 4.0}).norm());
  LevelGuard guard;
  for (const SimdLevel level : testable_levels()) {
    force_simd_level(level);
    BatchRunner runner(s, 3, config);
    EXPECT_SAME_RESULT(want, runner.run_one(env, trial_rng));
  }
}

TEST(BatchRunner, ReusedAcrossTrialsDoesNotLeakState) {
  // One runner fed alternating environments must match fresh scalar runs —
  // the workspaces are reused, the semantics must not be.
  const core::HarmonicStrategy harmonic(0.5);
  TrialStrategy s;
  s.segment = &harmonic;
  EngineConfig config;
  config.time_cap = 100'000;
  LevelGuard guard;
  force_simd_level(detected_simd_level());
  BatchRunner runner(s, 4, config);
  for (int t = 0; t < 60; ++t) {
    const rng::Rng trial_rng(rng::mix_seed(42, static_cast<std::uint64_t>(t)));
    TrialEnvironment env = base_env({{9 + (t % 3), -2}});
    if (t % 2 == 1) {
      env = draw_environment(4, std::move(env.targets), StaggeredStart(3),
                             ExponentialLifetime(200.0), trial_rng);
    }
    const TrialResult want = run_trial(s, 4, env, trial_rng, config);
    const TrialResult got = runner.run_one(env, trial_rng);
    EXPECT_SAME_RESULT(want, got);
  }
}

TEST(BatchRunner, ConstructorRejectsBadArguments) {
  const core::KnownKStrategy known(2);
  TrialStrategy none;
  EXPECT_THROW(BatchRunner(none, 2, {}), std::invalid_argument);
  TrialStrategy s;
  s.segment = &known;
  EXPECT_THROW(BatchRunner(s, 0, {}), std::invalid_argument);
}

TEST(BatchSimd, EnvAndForceClampToDetected) {
  LevelGuard guard;
  force_simd_level(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(active_simd_level()),
            static_cast<int>(detected_simd_level()));
  force_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
}

}  // namespace
}  // namespace ants::sim::batch

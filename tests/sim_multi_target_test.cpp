// Multiple treasures: the paper's foraging motivation, through run_trial.
//
// First-of-set races (TrialEnvironment with several targets) report which
// patch is discovered first; collect-all environments (env.collect_all)
// keep the agents searching to the cap and report every patch's
// first-visit time — the discovery schedule behind the nearest-first
// preference of central place foragers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/harmonic.h"
#include "core/known_k.h"
#include "plane/strategies.h"
#include "sim/batch/batch.h"
#include "sim/trial.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using testing::ScriptedStrategy;

TrialEnvironment targets_environment(std::vector<grid::Point> targets,
                                     bool collect_all = false) {
  TrialEnvironment env;
  env.targets = std::move(targets);
  env.collect_all = collect_all;
  return env;
}

TEST(MultiTarget, RejectsBadArguments) {
  const ScriptedStrategy s({GoTo{grid::Point{1, 0}}});
  const rng::Rng trial(1);
  EXPECT_THROW(run_trial(s, 0, targets_environment({{1, 0}}), trial),
               std::invalid_argument);
  EXPECT_THROW(run_trial(s, 1, targets_environment({}), trial),
               std::invalid_argument);

  // Collect-all needs a finite cap: its agents search until every target
  // is found, so an unreachable target would only stop at the segment
  // budget. Both executors, both substrates; the small budget makes a
  // missing guard fail fast with the budget's runtime_error.
  const plane::PlaneKnownKStrategy plane_strategy(1);
  EngineConfig uncapped;
  uncapped.max_segments_per_agent = 1000;
  TrialEnvironment grid_env = targets_environment({{1, 0}}, true);
  TrialEnvironment plane_env;
  plane_env.plane_targets = {{5.0, 0.0}};
  plane_env.collect_all = true;
  TrialStrategy grid_family;
  grid_family.segment = &s;
  TrialStrategy plane_family;
  plane_family.plane = &plane_strategy;
  for (const auto& [family, env] :
       {std::pair{grid_family, grid_env}, std::pair{plane_family, plane_env}}) {
    EXPECT_THROW(run_trial(family, 1, env, trial, uncapped),
                 std::invalid_argument);
    batch::BatchRunner runner(family, 1, uncapped);
    EXPECT_THROW(runner.run_one(env, trial), std::invalid_argument);
  }
  plane::PlaneTrialEnvironment native_env;
  native_env.targets = {{5.0, 0.0}};
  native_env.collect_all = true;
  plane::PlaneEngineConfig native_uncapped;
  native_uncapped.max_segments_per_agent = 1000;
  EXPECT_THROW(plane::run_plane_trial(plane_strategy, 1, native_env, trial,
                                      native_uncapped),
               std::invalid_argument);
}

TEST(MultiTarget, NearTargetOnPathWinsRace) {
  // One agent walks through (3,0) then (10,0): the near target must win
  // with the exact walk offset.
  const ScriptedStrategy s({GoTo{grid::Point{10, 0}}});
  const rng::Rng trial(2);
  const TrialResult r =
      run_trial(s, 1, targets_environment({{10, 0}, {3, 0}}), trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_EQ(r.time, 3);
}

TEST(MultiTarget, TargetAtOriginIsInstant) {
  const ScriptedStrategy s({GoTo{grid::Point{5, 5}}});
  const rng::Rng trial(3);
  const TrialResult r =
      run_trial(s, 2, targets_environment({{7, 7}, grid::kOrigin}), trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 0);
  EXPECT_EQ(r.first_target, 1);
}

TEST(MultiTarget, CollectAllRecordsEveryVisit) {
  // The agent walks to (4,0), then (from there) the engine realizes GoTo
  // (4,3): both targets' first-visit times are exact.
  const ScriptedStrategy s({GoTo{grid::Point{4, 0}}, GoTo{grid::Point{4, 3}}});
  const rng::Rng trial(4);
  EngineConfig config;
  config.time_cap = 1000;
  const TrialResult r = run_trial(
      s, 1, targets_environment({{4, 0}, {4, 3}, {50, 50}}, true), trial,
      config);
  // `found` means EVERY target was found; the far one never is.
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 1000);  // time-to-all-found, censored at the cap
  EXPECT_EQ(r.first_target, 0);
  EXPECT_EQ(r.finder, 0);
  ASSERT_EQ(r.target_times.size(), 3u);
  EXPECT_EQ(r.target_times[0], 4);
  EXPECT_EQ(r.target_times[1], 7);
  EXPECT_EQ(r.target_times[2], -1);  // never reached within the cap
}

TEST(MultiTarget, CollectAllMatchesFirstOfSetOnTheWinner) {
  const core::HarmonicStrategy s(0.5);
  const std::vector<grid::Point> targets{{6, 2}, {-9, 4}, {0, -12}};
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const rng::Rng trial(seed);
    EngineConfig config;
    config.time_cap = 200'000;
    const TrialResult race =
        run_trial(s, 6, targets_environment(targets), trial, config);
    const TrialResult all =
        run_trial(s, 6, targets_environment(targets, true), trial, config);
    ASSERT_EQ(race.found, all.first_target >= 0) << seed;
    if (race.found) {
      ASSERT_EQ(race.first_target, all.first_target) << seed;
      ASSERT_EQ(race.finder, all.finder) << seed;
      EXPECT_EQ(all.target_times[static_cast<std::size_t>(all.first_target)],
                race.time);
    }
  }
}

TEST(MultiTarget, DiscoveryTimesAreMonotoneInTargetDistance) {
  // Collect-all with the harmonic strategy: averaged over trials, nearer
  // patches are discovered earlier — the central-place-foraging preference
  // from the paper's introduction.
  const core::HarmonicStrategy s(0.5);
  const TrialEnvironment env =
      targets_environment({{4, 0}, {0, 16}, {-48, 0}}, true);
  double sums[3] = {0, 0, 0};
  const int trials = 60;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const rng::Rng trial(seed * 31 + 5);
    EngineConfig config;
    config.time_cap = 500'000;
    const TrialResult r = run_trial(s, 8, env, trial, config);
    for (int i = 0; i < 3; ++i) {
      const double t = r.target_times[static_cast<std::size_t>(i)];
      sums[i] += t < 0 ? static_cast<double>(config.time_cap) : t;
    }
  }
  EXPECT_LT(sums[0], sums[1]);
  EXPECT_LT(sums[1], sums[2]);
}

TEST(MultiTarget, NearestFirstProbabilityIsHigh) {
  // First-of-set mode: the patch at distance 4 should win the race against
  // the patch at distance 40 almost always.
  const core::HarmonicStrategy s(0.5);
  const TrialEnvironment env = targets_environment({{2, 2}, {20, 20}});
  int near_wins = 0, races = 0;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const rng::Rng trial(seed * 17 + 3);
    EngineConfig config;
    config.time_cap = 1'000'000;
    const TrialResult r = run_trial(s, 8, env, trial, config);
    if (!r.found) continue;
    ++races;
    near_wins += (r.first_target == 0);
  }
  ASSERT_GT(races, 60);
  EXPECT_GT(static_cast<double>(near_wins) / races, 0.85);
}

TEST(MultiTarget, DeterministicPerSeed) {
  const core::KnownKStrategy s(8);
  const TrialEnvironment env = targets_environment({{5, 5}, {-7, 2}});
  const rng::Rng trial(99);
  const TrialResult a = run_trial(s, 8, env, trial);
  const TrialResult b = run_trial(s, 8, env, trial);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
  EXPECT_EQ(a.first_target, b.first_target);
}

}  // namespace
}  // namespace ants::sim

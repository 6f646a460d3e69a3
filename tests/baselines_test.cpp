#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <variant>
#include <vector>

#include "baselines/biased_walk.h"
#include "baselines/cow_path_1d.h"
#include "baselines/levy.h"
#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "baselines/spiral_single.h"
#include "grid/spiral.h"
#include "grid/visited_set.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "util/sat.h"

namespace ants::baselines {
namespace {

using grid::Point;

TEST(RandomWalk, StepsAreAlwaysAdjacent) {
  const RandomWalkStrategy rw;
  const auto program = rw.make_program(sim::AgentContext{});
  rng::Rng rng(1);
  Point pos = grid::kOrigin;
  for (int i = 0; i < 5000; ++i) {
    const Point next = program->step(rng, pos);
    ASSERT_EQ(grid::l1_dist(next, pos), 1);
    pos = next;
  }
}

TEST(RandomWalk, MeanSquaredDisplacementIsLinear) {
  // E[||X_t||^2] = t for the simple walk; empirical check at t = 400.
  const RandomWalkStrategy rw;
  rng::Rng master(2);
  double sum = 0;
  const int n = 3000;
  for (int trial = 0; trial < n; ++trial) {
    rng::Rng rng = master.child(static_cast<std::uint64_t>(trial));
    const auto program = rw.make_program(sim::AgentContext{});
    Point pos = grid::kOrigin;
    for (int t = 0; t < 400; ++t) pos = program->step(rng, pos);
    sum += static_cast<double>(pos.x * pos.x + pos.y * pos.y);
  }
  EXPECT_NEAR(sum / n, 400.0, 30.0);
}

TEST(BiasedWalk, Validation) {
  EXPECT_THROW(BiasedWalkStrategy(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BiasedWalkStrategy(-0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(BiasedWalkStrategy(0.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(BiasedWalkStrategy(0.0, 0.0));
}

TEST(BiasedWalk, OutwardBiasGrowsRadiusFaster) {
  const BiasedWalkStrategy unbiased(0.0, 0.0);
  const BiasedWalkStrategy biased(0.6, 0.0);
  rng::Rng master(3);
  double r_unbiased = 0, r_biased = 0;
  const int n = 800, steps = 300;
  for (int trial = 0; trial < n; ++trial) {
    rng::Rng ra = master.child(2 * static_cast<std::uint64_t>(trial));
    rng::Rng rb = master.child(2 * static_cast<std::uint64_t>(trial) + 1);
    const auto pa = unbiased.make_program(sim::AgentContext{});
    const auto pb = biased.make_program(sim::AgentContext{});
    Point a = grid::kOrigin, b = grid::kOrigin;
    for (int t = 0; t < steps; ++t) {
      a = pa->step(ra, a);
      b = pb->step(rb, b);
    }
    r_unbiased += static_cast<double>(grid::l1_norm(a));
    r_biased += static_cast<double>(grid::l1_norm(b));
  }
  // Biased drift is ballistic (~ bias/2 per step); unbiased is diffusive.
  EXPECT_GT(r_biased / n, 3.0 * r_unbiased / n);
}

TEST(BiasedWalk, PersistenceKeepsDirection) {
  const BiasedWalkStrategy persistent(0.0, 0.9);
  rng::Rng rng(4);
  const auto program = persistent.make_program(sim::AgentContext{});
  Point pos = grid::kOrigin;
  Point prev_step{0, 0};
  int repeats = 0, moves = 0;
  for (int t = 0; t < 4000; ++t) {
    const Point next = program->step(rng, pos);
    const Point step{next.x - pos.x, next.y - pos.y};
    if (t > 0 && step == prev_step) ++repeats;
    ++moves;
    prev_step = step;
    pos = next;
  }
  // With persistence 0.9 plus chance agreement, repeats ~ 0.9 + 0.1/4.
  EXPECT_GT(static_cast<double>(repeats) / moves, 0.85);
}

TEST(Levy, Validation) {
  EXPECT_THROW(LevyStrategy(1.0, false), std::invalid_argument);
  EXPECT_THROW(LevyStrategy(3.5, false), std::invalid_argument);
  EXPECT_THROW(LevyStrategy(2.0, false, -1), std::invalid_argument);
  EXPECT_NO_THROW(LevyStrategy(2.0, true, 100));
}

TEST(Levy, LoopVariantReturnsToSource) {
  const LevyStrategy levy(2.0, /*loop=*/true);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const sim::Op fly = program->next(rng);
    ASSERT_TRUE(std::holds_alternative<sim::GoTo>(fly));
    const sim::Op ret = program->next(rng);
    ASSERT_TRUE(std::holds_alternative<sim::ReturnToSource>(ret));
  }
}

TEST(Levy, ScanInsertsSpiral) {
  const LevyStrategy levy(2.0, /*loop=*/true, /*scan=*/64);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(6);
  ASSERT_TRUE(std::holds_alternative<sim::GoTo>(program->next(rng)));
  const sim::Op scan = program->next(rng);
  ASSERT_TRUE(std::holds_alternative<sim::SpiralFor>(scan));
  EXPECT_EQ(std::get<sim::SpiralFor>(scan).duration, 64);
  ASSERT_TRUE(std::holds_alternative<sim::ReturnToSource>(program->next(rng)));
}

TEST(Levy, FlightLengthTailMatchesMu) {
  const LevyStrategy levy(2.5, /*loop=*/true);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(7);
  int long_flights = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const sim::Op fly = program->next(rng);
    const Point target = std::get<sim::GoTo>(fly).target;
    // Euclidean length ~ L1/sqrt(2)..L1; use L1 as a proxy threshold.
    if (grid::l1_norm(target) > 10) ++long_flights;
    (void)program->next(rng);
  }
  // P(L > 10) = 10^-(mu-1) = 10^-1.5 ~ 0.032 (the lattice rounding and the
  // L1 proxy shift this a bit; just require the right order of magnitude).
  const double frac = static_cast<double>(long_flights) / n;
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.10);
}

TEST(SpiralSingle, MatchesPureSpiralTime) {
  // A single agent finds the treasure at exactly spiral_index(tau) steps.
  const SpiralSingleStrategy strategy;
  rng::Rng rng(8);
  for (const Point tau : {Point{3, 2}, Point{-5, 0}, Point{0, -7}}) {
    const sim::TrialResult r =
        sim::run_trial(strategy, 1, sim::single_target_environment(tau), rng);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.time, grid::spiral_index(tau));
  }
}

TEST(SpiralSingle, NoSpeedupFromMoreAgents) {
  const SpiralSingleStrategy strategy;
  rng::Rng rng(9);
  const Point tau{6, -4};
  const sim::TrialEnvironment env = sim::single_target_environment(tau);
  const sim::TrialResult one = sim::run_trial(strategy, 1, env, rng);
  const sim::TrialResult many = sim::run_trial(strategy, 16, env, rng);
  EXPECT_EQ(one.time, many.time);  // identical deterministic agents
}

TEST(SectorSweep, SingleAgentCoversBallInOrder) {
  // k=1: the sweep degenerates to the full spiral ring-by-ring.
  const SectorSweepStrategy strategy;
  rng::Rng rng(10);
  const sim::TrialResult r =
      sim::run_trial(strategy, 1, sim::single_target_environment({4, 4}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.time, 0);
}

TEST(SectorSweep, EveryRingNodeCoveredByExactlyOneAgent) {
  // Partition property: for each ring r and k, the arcs tile [0, 8r).
  for (const int k : {1, 2, 3, 5, 8}) {
    for (std::int64_t r = 1; r <= 30; ++r) {
      std::vector<int> owner(static_cast<std::size_t>(8 * r), -1);
      for (int i = 0; i < k; ++i) {
        const std::int64_t lo = 8 * r * i / k;
        const std::int64_t hi = 8 * r * (i + 1) / k;
        for (std::int64_t m = lo; m < hi; ++m) {
          ASSERT_EQ(owner[static_cast<std::size_t>(m)], -1);
          owner[static_cast<std::size_t>(m)] = i;
        }
      }
      for (const int o : owner) ASSERT_NE(o, -1);
    }
  }
}

TEST(SectorSweep, CoversEverythingWithinTimeBudget) {
  // With k=4 agents, every node with Chebyshev norm <= 10 must be visited
  // within a generous horizon (deterministic coverage).
  const SectorSweepStrategy strategy;
  for (std::int64_t x = -10; x <= 10; x += 5) {
    for (std::int64_t y = -10; y <= 10; y += 5) {
      if (x == 0 && y == 0) continue;
      rng::Rng rng(11);
      sim::EngineConfig config;
      config.time_cap = 4000;
      const sim::TrialResult r = sim::run_trial(
          strategy, 4, sim::single_target_environment({x, y}), rng, config);
      EXPECT_TRUE(r.found) << x << "," << y;
    }
  }
}

TEST(SectorSweep, MoreAgentsFindFaster) {
  const SectorSweepStrategy strategy;
  rng::Rng rng(12);
  const Point tau{0, 20};
  const sim::TrialEnvironment env = sim::single_target_environment(tau);
  const sim::TrialResult k1 = sim::run_trial(strategy, 1, env, rng);
  const sim::TrialResult k8 = sim::run_trial(strategy, 8, env, rng);
  EXPECT_TRUE(k1.found);
  EXPECT_TRUE(k8.found);
  EXPECT_LT(k8.time, k1.time);
}

TEST(CowPath, FindsEveryTarget) {
  for (std::int64_t d = 1; d <= 200; ++d) {
    const CowPathResult right = cow_path_doubling(d);
    const CowPathResult left = cow_path_doubling(-d);
    EXPECT_GE(right.steps, d);
    EXPECT_GE(left.steps, d);
    EXPECT_GE(right.competitive_ratio, 1.0);
    EXPECT_GE(left.competitive_ratio, 1.0);
  }
}

TEST(CowPath, NineCompetitive) {
  EXPECT_LE(cow_path_worst_ratio(1 << 12), 9.0 + 1e-9);
}

TEST(CowPath, WorstCaseApproachesNine) {
  // Adversarial target just past a turn point: ratio -> 9 from below.
  EXPECT_GT(cow_path_worst_ratio(1 << 12), 8.5);
}

TEST(CowPath, ImmediateHitIsOptimal) {
  const CowPathResult r = cow_path_doubling(1);
  EXPECT_EQ(r.steps, 1);
  EXPECT_EQ(r.turns, 0);
  EXPECT_DOUBLE_EQ(r.competitive_ratio, 1.0);
}

TEST(CowPath, Validation) {
  EXPECT_THROW(cow_path_doubling(0), std::invalid_argument);
  EXPECT_THROW(cow_path_worst_ratio(0), std::invalid_argument);
}

}  // namespace
}  // namespace ants::baselines

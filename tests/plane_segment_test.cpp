#include "plane/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>

#include "rng/rng.h"

namespace ants::plane {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// ---------------------------------------------------------------------------
// Vec2 basics.
// ---------------------------------------------------------------------------

TEST(Vec2, ArithmeticAndNorms) {
  const Vec2 a{3, 4}, b{1, -1};
  EXPECT_EQ((a + b), (Vec2{4, 3}));
  EXPECT_EQ((a - b), (Vec2{2, 5}));
  EXPECT_EQ((a * 2.0), (Vec2{6, 8}));
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot(b), -1.0);
  EXPECT_NEAR(distance(a, b), std::hypot(2, 5), 1e-12);
}

TEST(Vec2, UnitVectorOnCircle) {
  for (double th = 0; th < kTwoPi; th += 0.1) {
    EXPECT_NEAR(unit(th).norm(), 1.0, 1e-12);
  }
  EXPECT_NEAR(unit(0).x, 1.0, 1e-12);
  EXPECT_NEAR(unit(kTwoPi / 4).y, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Line sightings (exact quadratic).
// ---------------------------------------------------------------------------

TEST(LineSighting, HeadOnHitAtDistanceMinusEps) {
  // Walking from (0,0) to (10,0), target at (6,0), eps = 1: first sighting
  // when the agent reaches x = 5.
  const LineMove move{{0, 0}, {10, 0}};
  const auto t = first_sighting(Move{move}, Vec2{6, 0}, 1.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-9);
}

TEST(LineSighting, StartInsideSightIsImmediate) {
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_EQ(first_sighting(Move{move}, Vec2{0.5, 0.3}, 1.0), 0.0);
}

TEST(LineSighting, PerpendicularGrazePasses) {
  // Target 0.99 off the line: sighted; 1.01 off: missed (eps = 1).
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_TRUE(first_sighting(Move{move}, Vec2{5, 0.99}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{5, 1.01}, 1.0).has_value());
}

TEST(LineSighting, BehindTheSegmentIsMissed) {
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{-3, 0}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{13, 0}, 1.0).has_value());
}

TEST(LineSighting, ZeroLengthMoveOnlySeesItsOwnDisk) {
  const LineMove move{{2, 2}, {2, 2}};
  EXPECT_TRUE(first_sighting(Move{move}, Vec2{2.5, 2}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{4, 2}, 1.0).has_value());
}

TEST(LineSighting, MatchesDenseSamplingOnRandomInstances) {
  rng::Rng rng(404);
  for (int iter = 0; iter < 300; ++iter) {
    const LineMove move{{rng.uniform_real(-20, 20), rng.uniform_real(-20, 20)},
                        {rng.uniform_real(-20, 20), rng.uniform_real(-20, 20)}};
    const Vec2 target{rng.uniform_real(-25, 25), rng.uniform_real(-25, 25)};
    const double eps = rng.uniform_real(0.5, 2.0);
    const auto got = first_sighting(Move{move}, target, eps);

    // Dense reference: sample every 1e-3 of travel.
    const double len = (move.to - move.from).norm();
    std::optional<Time> expect;
    const Vec2 dir = len > 0 ? (move.to - move.from) * (1.0 / len) : Vec2{};
    for (double s = 0; s <= len; s += 1e-3) {
      if (distance(move.from + dir * s, target) <= eps) {
        expect = s;
        break;
      }
    }
    if (expect.has_value()) {
      ASSERT_TRUE(got.has_value()) << iter;
      EXPECT_NEAR(*got, *expect, 2e-3) << iter;
    } else if (got.has_value()) {
      // The analytic hit must be a graze the sampler stepped over.
      const Vec2 p = move.from + dir * *got;
      EXPECT_NEAR(distance(p, target), eps, 1e-6) << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Archimedean spiral math.
// ---------------------------------------------------------------------------

TEST(MovePositionAt, LineInterpolatesAndClamps) {
  const Move move = LineMove{{1, 1}, {1, 11}};
  EXPECT_EQ(move_position_at(move, -3.0), (Vec2{1, 1}));
  EXPECT_EQ(move_position_at(move, 0.0), (Vec2{1, 1}));
  const Vec2 mid = move_position_at(move, 5.0);
  EXPECT_NEAR(mid.x, 1.0, 1e-12);
  EXPECT_NEAR(mid.y, 6.0, 1e-12);
  EXPECT_EQ(move_position_at(move, 10.0), (Vec2{1, 11}));
  EXPECT_EQ(move_position_at(move, 99.0), (Vec2{1, 11}));
  // Degenerate zero-length move: every offset is the start point.
  EXPECT_EQ(move_position_at(Move{LineMove{{2, 3}, {2, 3}}}, 1.0),
            (Vec2{2, 3}));
}

TEST(MovePositionAt, SpiralTracksArcLengthAndEndsAtMoveEnd) {
  const SpiralMove sp{{5, -2}, 2.0, 300.0};
  const Move move{sp};
  const double a = sp.pitch / (2.0 * 3.14159265358979323846);
  for (const double s : {0.0, 1.0, 37.5, 150.0, 299.0}) {
    const Vec2 p = move_position_at(move, s);
    // The point sits on the spiral: its radius from the center is a*theta
    // for the theta whose arc length is s.
    const double theta = spiral_theta_for_arc(a, s);
    EXPECT_NEAR(distance(p, sp.center), a * theta, 1e-8) << "s=" << s;
    EXPECT_EQ(p, spiral_point_at(sp.center, a, theta));
  }
  EXPECT_EQ(move_position_at(move, sp.duration), move_end(move));
  EXPECT_EQ(move_position_at(move, sp.duration + 50.0), move_end(move));
}

TEST(SpiralMath, ArcLengthMonotoneAndConvex) {
  const double a = 0.3;
  double prev = 0;
  for (double th = 0.5; th < 60; th += 0.5) {
    const double s = spiral_arc_length(a, th);
    EXPECT_GT(s, prev);
    prev = s;
  }
  // Large-theta asymptotic: s ~ (a/2) theta^2.
  EXPECT_NEAR(spiral_arc_length(a, 100.0), 0.5 * a * 100 * 100,
              0.01 * 0.5 * a * 100 * 100);
}

TEST(SpiralMath, ThetaForArcInvertsArcLength) {
  const double a = 0.15915494309189535;  // pitch 1
  for (double th = 0; th < 80; th += 0.37) {
    const double s = spiral_arc_length(a, th);
    EXPECT_NEAR(spiral_theta_for_arc(a, s), th, 1e-8 * (1 + th));
  }
}

TEST(SpiralMath, PointAtRadiusGrowsLinearly) {
  const double a = 0.5;
  for (double th = 0; th < 40; th += 1.1) {
    const Vec2 p = spiral_point_at({0, 0}, a, th);
    EXPECT_NEAR(p.norm(), a * th, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Spiral sightings vs dense path sampling.
// ---------------------------------------------------------------------------

// Reference: walk the spiral in theta space with arc steps of ~ds (the
// local arc per radian is sqrt(a^2 + r^2), so dtheta = ds / that) and
// report the first sample within eps. Avoids a Newton solve per sample.
std::optional<Time> dense_spiral_sighting(const SpiralMove& sp, Vec2 target,
                                          double eps, double ds) {
  const double a = sp.pitch / kTwoPi;
  double th = 0;
  while (true) {
    const double s = spiral_arc_length(a, th);
    if (s > sp.duration) return std::nullopt;
    if (distance(spiral_point_at(sp.center, a, th), target) <= eps) {
      return s;
    }
    const double r = a * th;
    th += ds / std::sqrt(a * a + r * r);
  }
}

TEST(SpiralSighting, CenterTargetImmediate) {
  const SpiralMove sp{{0, 0}, 1.0, 100.0};
  EXPECT_EQ(first_sighting(Move{sp}, Vec2{0.2, -0.1}, 1.0), 0.0);
}

TEST(SpiralSighting, FarTargetBeyondBudgetMissed) {
  // Budget 100 reaches radius ~ sqrt(2*a*100) ~ 5.6 with pitch 1; a target
  // at radius 30 cannot be sighted.
  const SpiralMove sp{{0, 0}, 1.0, 100.0};
  EXPECT_FALSE(first_sighting(Move{sp}, Vec2{30, 0}, 1.0).has_value());
}

TEST(SpiralSighting, CoversEverythingWithinSweptRadius) {
  // pitch = 1, eps = 1 > pitch/2: no blind rings. Every target within the
  // (conservative) swept radius must be sighted.
  const SpiralMove sp{{0, 0}, 1.0, 4000.0};
  const double a = sp.pitch / kTwoPi;
  const double theta_end = spiral_theta_for_arc(a, sp.duration);
  const double reach = a * theta_end - 2.0;  // one coil of margin
  rng::Rng rng(505);
  for (int iter = 0; iter < 250; ++iter) {
    const double r = rng.uniform_real(0.0, reach);
    const Vec2 target = unit(rng.angle()) * r;
    EXPECT_TRUE(first_sighting(Move{sp}, target, 1.0).has_value())
        << "r=" << r << " iter=" << iter;
  }
}

// Sampled references detect grazes one ds late or miss them; treat "one
// side missed but the other's sighting is within band of eps" as agreement.
void expect_sighting_agreement(const SpiralMove& sp, Vec2 target, double eps,
                               double ds, int iter) {
  const double a = sp.pitch / kTwoPi;
  const auto got = first_sighting(Move{sp}, target, eps);
  const auto expect = dense_spiral_sighting(sp, target, eps, ds);
  if (got.has_value() && expect.has_value()) {
    EXPECT_NEAR(*got, *expect, ds + 0.01 * *expect) << iter;
    return;
  }
  if (got.has_value() != expect.has_value()) {
    // Grazing pass: the minimum approach must hug the sight boundary.
    const double th = spiral_theta_for_arc(
        a, got.has_value() ? *got : *expect);
    const double approach =
        distance(spiral_point_at(sp.center, a, th), target);
    EXPECT_NEAR(approach, eps, 0.1) << iter << " graze check";
  }
}

TEST(SpiralSighting, MatchesDenseSamplingNearCenter) {
  // Near-center regime (dense-scan path in the implementation).
  rng::Rng rng(606);
  const SpiralMove sp{{0, 0}, 1.0, 600.0};
  for (int iter = 0; iter < 40; ++iter) {
    const Vec2 target = unit(rng.angle()) * rng.uniform_real(1.5, 12.0);
    expect_sighting_agreement(sp, target, 0.8, 2e-2, iter);
  }
}

TEST(SpiralSighting, MatchesDenseSamplingDeepRegime) {
  // Deep regime (per-coil ternary path): pitch 1, targets past the 50-pitch
  // threshold.
  rng::Rng rng(707);
  const SpiralMove sp{{0, 0}, 1.0, 12000.0};
  for (int iter = 0; iter < 12; ++iter) {
    const Vec2 target = unit(rng.angle()) * rng.uniform_real(52.0, 60.0);
    expect_sighting_agreement(sp, target, 0.9, 2e-2, iter);
  }
}

TEST(SpiralSighting, OffCenterSpiralsWork) {
  const SpiralMove sp{{100, -50}, 1.0, 3000.0};
  const auto t = first_sighting(Move{sp}, Vec2{104, -50}, 1.0);
  ASSERT_TRUE(t.has_value());
  // Radius 4 is reached at arc ~ (a/2) (r/a)^2 = r^2/(2a) with a = 1/2pi.
  const double a = 1.0 / kTwoPi;
  EXPECT_LT(*t, 16.0 / (2 * a) * 1.5);
  EXPECT_GT(*t, 1.0);
}

// ---------------------------------------------------------------------------
// Spiral sightings vs the reference scan, bit for bit.
// ---------------------------------------------------------------------------

namespace reference {

// A verbatim copy of the spiral sight test as it stood before the
// angular-window scan: the classic test, its appear-window copy, and the
// 80-step bisection. The production scan must return the SAME doubles.

double spiral_dist2(Vec2 center, double a, double theta, Vec2 target) {
  const Vec2 p = spiral_point_at(center, a, theta);
  return (p - target).norm2();
}

std::optional<Time> refine_entry(const SpiralMove& sp, double a, Vec2 target,
                                 double eps2, double outside, double inside) {
  double x0 = outside, x1 = inside;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (x0 + x1);
    if (spiral_dist2(sp.center, a, mid, target) <= eps2) {
      x1 = mid;
    } else {
      x0 = mid;
    }
  }
  const double s = spiral_arc_length(a, x1);
  if (s <= sp.duration) return s;
  return std::nullopt;
}

std::optional<Time> classic_scan(const SpiralMove& sp, Vec2 target,
                                 double eps, double theta_end) {
  const double a = sp.pitch / kTwoPi;
  const Vec2 rel = target - sp.center;
  const double d = rel.norm();
  if (d <= eps) return 0.0;
  if (sp.duration <= 0) return std::nullopt;

  const double theta_lo = std::max(0.0, (d - eps) / a);
  const double theta_hi = std::min(theta_end, (d + eps) / a);
  if (theta_lo > theta_hi) return std::nullopt;
  const double eps2 = eps * eps;

  if (d <= 50.0 * sp.pitch) {
    const double dtheta = eps / (20.0 * std::max(d, eps));
    double prev = theta_lo;
    if (spiral_dist2(sp.center, a, prev, target) <= eps2) {
      return spiral_arc_length(a, prev);
    }
    for (double theta = theta_lo + dtheta;; theta += dtheta) {
      const double th = std::min(theta, theta_hi);
      if (spiral_dist2(sp.center, a, th, target) <= eps2) {
        return refine_entry(sp, a, target, eps2, prev, th);
      }
      prev = th;
      if (th >= theta_hi) break;
    }
    return std::nullopt;
  }

  const double phi = std::atan2(rel.y, rel.x);
  const double n_min = std::floor((theta_lo - phi) / kTwoPi) - 1.0;
  const double n_max = std::ceil((theta_hi - phi) / kTwoPi) + 1.0;
  for (double n = std::max(n_min, 0.0); n <= n_max; n += 1.0) {
    const double theta_c = phi + n * kTwoPi;
    const double lo = std::max(0.0, theta_c - 0.5 * kTwoPi);
    const double hi = std::min(theta_end, theta_c + 0.5 * kTwoPi);
    if (lo >= hi) continue;
    double a1 = lo, b1 = hi;
    for (int it = 0; it < 100; ++it) {
      const double m1 = a1 + (b1 - a1) / 3.0;
      const double m2 = b1 - (b1 - a1) / 3.0;
      if (spiral_dist2(sp.center, a, m1, target) <
          spiral_dist2(sp.center, a, m2, target)) {
        b1 = m2;
      } else {
        a1 = m1;
      }
    }
    const double theta_min = 0.5 * (a1 + b1);
    if (spiral_dist2(sp.center, a, theta_min, target) > eps2) continue;
    return refine_entry(sp, a, target, eps2, lo, theta_min);
  }
  return std::nullopt;
}

std::optional<Time> windowed_scan(const SpiralMove& sp, Vec2 target,
                                  double eps, double theta_begin,
                                  double theta_end) {
  const double a = sp.pitch / kTwoPi;
  const Vec2 rel = target - sp.center;
  const double d = rel.norm();
  const double theta_lo = std::max(theta_begin, std::max(0.0, (d - eps) / a));
  const double theta_hi = std::min(theta_end, (d + eps) / a);
  if (theta_lo > theta_hi) return std::nullopt;
  const double eps2 = eps * eps;

  if (d <= 50.0 * sp.pitch) {
    const double dtheta = eps / (20.0 * std::max(d, eps));
    double prev = theta_lo;
    if (spiral_dist2(sp.center, a, prev, target) <= eps2) {
      return spiral_arc_length(a, prev);
    }
    for (double theta = theta_lo + dtheta;; theta += dtheta) {
      const double th = std::min(theta, theta_hi);
      if (spiral_dist2(sp.center, a, th, target) <= eps2) {
        return refine_entry(sp, a, target, eps2, prev, th);
      }
      prev = th;
      if (th >= theta_hi) break;
    }
    return std::nullopt;
  }

  const double phi = std::atan2(rel.y, rel.x);
  const double n_min = std::floor((theta_lo - phi) / kTwoPi) - 1.0;
  const double n_max = std::ceil((theta_hi - phi) / kTwoPi) + 1.0;
  for (double n = std::max(n_min, 0.0); n <= n_max; n += 1.0) {
    const double theta_c = phi + n * kTwoPi;
    const double lo =
        std::max(theta_begin, std::max(0.0, theta_c - 0.5 * kTwoPi));
    const double hi = std::min(theta_end, theta_c + 0.5 * kTwoPi);
    if (lo >= hi) continue;
    double a1 = lo, b1 = hi;
    for (int it = 0; it < 100; ++it) {
      const double m1 = a1 + (b1 - a1) / 3.0;
      const double m2 = b1 - (b1 - a1) / 3.0;
      if (spiral_dist2(sp.center, a, m1, target) <
          spiral_dist2(sp.center, a, m2, target)) {
        b1 = m2;
      } else {
        a1 = m1;
      }
    }
    const double theta_min = 0.5 * (a1 + b1);
    if (spiral_dist2(sp.center, a, theta_min, target) > eps2) continue;
    return refine_entry(sp, a, target, eps2, lo, theta_min);
  }
  return std::nullopt;
}

/// first_sighting / first_sighting_from on a SpiralMove, as they composed
/// the two scans above.
std::optional<Time> first_sighting_from(const SpiralMove& sp, Vec2 target,
                                        double eps, Time from) {
  const double a = sp.pitch / kTwoPi;
  if (from <= 0) {
    if ((target - sp.center).norm() <= eps) return 0.0;
    if (sp.duration <= 0) return std::nullopt;
    return classic_scan(sp, target, eps, spiral_theta_for_arc(a, sp.duration));
  }
  if (from >= sp.duration) return std::nullopt;
  const Vec2 at_from =
      spiral_point_at(sp.center, a, spiral_theta_for_arc(a, from));
  if ((at_from - target).norm2() <= eps * eps) return from;
  return windowed_scan(sp, target, eps, spiral_theta_for_arc(a, from),
                       spiral_theta_for_arc(a, sp.duration));
}

}  // namespace reference

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(SpiralSighting, BitIdenticalToReferenceScan) {
  // Seeded queries over both regimes (the 50-pitch switch sits inside the
  // distance range), gap-free pitches in (0, 2 eps], off-center spirals,
  // targets on the rim of a swept point (eps * (1 +- 1e-13) away, where a
  // skipped evaluation would flip the answer), targets just outside the
  // center's disc, and appear-window starts anywhere in the move.
  rng::Rng rng(20261020);
  constexpr int kQueries = 100'000;
  int hits = 0;
  int windowed = 0;
  for (int q = 0; q < kQueries; ++q) {
    const double eps = rng.uniform_real(0.1, 3.0);
    const double pitch =
        q % 16 == 0 ? 2.0 * eps : 2.0 * eps * rng.uniform_real(0.02, 1.0);
    const double a = pitch / kTwoPi;
    const Vec2 center = q % 2 == 0 ? Vec2{0, 0}
                                   : Vec2{rng.uniform_real(-150.0, 150.0),
                                          rng.uniform_real(-150.0, 150.0)};
    const double d_max = std::max(55.0 * pitch, eps * 1.5);
    // Budget reaching a radius a little past d_max, or cut short of it.
    const double reach = rng.uniform_real(0.2, 1.1) * (d_max + eps);
    const SpiralMove sp{center, pitch, spiral_arc_length(a, reach / a)};
    Vec2 target;
    switch (q % 4) {
      case 0: {  // rim of a point the spiral passes
        const double theta0 = rng.uniform_real(0.0, reach / a);
        const double rim = rng.coin() ? 1.0 + 1e-13 : 1.0 - 1e-13;
        target = spiral_point_at(center, a, theta0) +
                 unit(rng.angle()) * (eps * rim);
        break;
      }
      case 1:  // just outside the center's disc
        target = center + unit(rng.angle()) * (eps * (1.0 + 1e-12));
        break;
      default: {  // log-uniform distance up to 55 pitches
        const double lo = eps * (1.0 + 1e-12);
        const double d = lo * std::exp(rng.uniform_real(0.0, 1.0) *
                                       std::log(d_max / lo));
        target = center + unit(rng.angle()) * d;
        break;
      }
    }
    const Time from =
        q % 3 == 0 ? rng.uniform_real(0.0, 1.05) * sp.duration : 0.0;
    windowed += from > 0 ? 1 : 0;

    const auto want = reference::first_sighting_from(sp, target, eps, from);
    const auto got = from > 0 ? first_sighting_from(Move{sp}, target, eps, from)
                              : first_sighting(Move{sp}, target, eps);
    ASSERT_EQ(want.has_value(), got.has_value())
        << "query " << q << " eps=" << eps << " pitch=" << pitch
        << " from=" << from;
    if (want) {
      ++hits;
      ASSERT_EQ(bits_of(*want), bits_of(*got))
          << "query " << q << ": " << *want << " vs " << *got;
    }
  }
  // Both outcomes and both entry points were exercised in volume.
  EXPECT_GT(hits, kQueries / 4);
  EXPECT_LT(hits, kQueries);
  EXPECT_GT(windowed, kQueries / 4);
}

// ---------------------------------------------------------------------------
// Durations and end positions.
// ---------------------------------------------------------------------------

TEST(MoveGeometry, LineDurationIsLength) {
  EXPECT_DOUBLE_EQ(move_duration(Move{LineMove{{0, 0}, {3, 4}}}), 5.0);
  EXPECT_EQ(move_end(Move{LineMove{{0, 0}, {3, 4}}}), (Vec2{3, 4}));
}

TEST(MoveGeometry, SpiralDurationIsBudgetAndEndOnSpiral) {
  const SpiralMove sp{{1, 1}, 1.0, 500.0};
  EXPECT_DOUBLE_EQ(move_duration(Move{sp}), 500.0);
  const Vec2 end = move_end(Move{sp});
  const double a = sp.pitch / kTwoPi;
  const double theta = spiral_theta_for_arc(a, sp.duration);
  EXPECT_NEAR(distance(end, sp.center), a * theta, 1e-9);
}

}  // namespace
}  // namespace ants::plane

#include "plane/segment.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ants::plane {

std::optional<Time> line_first_sighting(const LineMove& line, Vec2 target,
                                        double eps) {
  const Vec2 d = line.to - line.from;
  const double len = d.norm();
  const Vec2 w = line.from - target;
  if (w.norm2() <= eps * eps) return 0.0;  // already in sight at the start
  if (len == 0.0) return std::nullopt;
  const Vec2 u = d * (1.0 / len);
  // |w + t u|^2 = eps^2  =>  t^2 + 2 (w.u) t + (|w|^2 - eps^2) = 0.
  const double b = w.dot(u);
  const double c = w.norm2() - eps * eps;
  const double disc = b * b - c;
  if (disc < 0) return std::nullopt;
  const double t = -b - std::sqrt(disc);  // earliest root; start is outside
  if (t < 0 || t > len) return std::nullopt;
  return t;
}

namespace {

/// Squared distance from `target` to the spiral point at angle theta.
double spiral_dist2(Vec2 center, double a, double theta, Vec2 target) {
  const Vec2 p = spiral_point_at(center, a, theta);
  return (p - target).norm2();
}

/// Bisects the sight-disk entry in (outside, inside] and converts to arc
/// length, honoring the budget. `outside` is always outside the disc (a
/// scan point, a coil window edge opposite the target's bearing, the center
/// of a classic test, or an appear-window start its caller tested) and
/// `inside` a tested inside point, so once the midpoint rounds onto either
/// end the bracket can never change again and the remaining steps are
/// skipped.
std::optional<Time> refine_entry(const SpiralMove& sp, double a, Vec2 target,
                                 double eps2, double outside, double inside) {
  double x0 = outside, x1 = inside;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (x0 + x1);
    if (mid == x0 || mid == x1) break;
    if (spiral_dist2(sp.center, a, mid, target) <= eps2) {
      x1 = mid;
    } else {
      x0 = mid;
    }
  }
  const double s = spiral_arc_length(a, x1);
  if (s <= sp.duration) return s;
  return std::nullopt;  // sighted only past the budget
}

/// Relative slack on eps^2 in the angular window below: covers the rounding
/// of the window edges and of the evaluated points, so a skipped point's
/// computed distance is still above eps.
constexpr double kWindowSlack = 1e-6;

}  // namespace

// First sighting on an Archimedean spiral. Sighting is only possible while
// the coil radius a*theta is inside the annulus [d - eps, d + eps] — an
// angular interval of width 2*eps/a (O(eps/pitch) coils). Two regimes:
//
//  * d within ~50 coils of the center: scan that interval with arc-length
//    steps of eps/20 and bisect the first crossing. Only points inside the
//    angular window around the target's bearing phi are evaluated: with
//    r = a*theta, |p - t|^2 = (r - d)^2 + 4 r d sin^2((theta - phi)/2), so a
//    point farther than delta* = 2 asin(eps / (2 sqrt(r_lo d))) from phi
//    (mod 2 pi) is outside the disc. The step sequence, hence the bracket
//    handed to the bisection, is exactly that of the full scan.
//  * d deeper out: visit each coil pass (angles congruent to the target's
//    angle phi), where the distance along one coil window is unimodal (the
//    sin(u) term of d/du |spiral - target|^2 dominates once theta >> 1), so
//    ternary search + bisection is exact and O(#coils) total.
//
// Grazing passes with penetration depth below the tolerance (~eps/40) can
// be reported one coil late; the asymptotic claims this module supports are
// insensitive to that, and the dense cross-check tests use a matching
// tolerance.
std::optional<Time> spiral_first_sighting_at(const SpiralMove& sp, Vec2 target,
                                             double eps, double theta_end,
                                             double theta_begin) {
  const double a = sp.pitch / kTwoPi;
  const Vec2 rel = target - sp.center;
  const double d = rel.norm();
  if (theta_begin <= 0) {
    if (d <= eps) return 0.0;  // visible from the spiral's very first point
    if (sp.duration <= 0) return std::nullopt;
  }

  const double theta_lo = std::max(theta_begin, std::max(0.0, (d - eps) / a));
  const double theta_hi = std::min(theta_end, (d + eps) / a);
  if (theta_lo > theta_hi) return std::nullopt;
  const double eps2 = eps * eps;

  if (d <= 50.0 * sp.pitch) {
    // Near-center regime: scan of the annulus interval.
    const double dtheta = eps / (20.0 * std::max(d, eps));
    // Angular windows [phi + 2 pi n - half, phi + 2 pi n + half]: points
    // between two windows are skipped. Without a sector (the bound excludes
    // nothing) the single window is the whole line.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double s2 = eps2 * (1.0 + kWindowSlack) / (4.0 * a * theta_lo * d);
    const bool sector = s2 < 1.0;
    const double half = sector ? 2.0 * std::asin(std::sqrt(s2)) : 0.0;
    const double phi = std::atan2(rel.y, rel.x);
    double n = std::floor((theta_lo - phi) / kTwoPi) - 1.0;  // before theta_lo
    double win_lo = -kInf;
    double win_hi = sector ? -kInf : kInf;
    const auto seek = [&](double th) {  // the first window not ending before th
      while (th > win_hi) {
        const double c = phi + n * kTwoPi;
        win_lo = c - half;
        win_hi = c + half;
        n += 1.0;
      }
    };

    double prev = theta_lo;
    seek(prev);
    if (prev >= win_lo && spiral_dist2(sp.center, a, prev, target) <= eps2) {
      return spiral_arc_length(a, prev);
    }
    double theta = theta_lo + dtheta;
    for (;;) {
      // Points short of the next window are outside the disc: step past
      // them with the scan's exact theta sequence, unevaluated.
      const double skip_to = std::min(win_lo, theta_hi);
      while (theta < skip_to) {
        prev = theta;
        theta += dtheta;
      }
      const double th = std::min(theta, theta_hi);
      seek(th);
      if (th >= win_lo && spiral_dist2(sp.center, a, th, target) <= eps2) {
        return refine_entry(sp, a, target, eps2, prev, th);
      }
      prev = th;
      if (th >= theta_hi) break;
      theta += dtheta;
    }
    return std::nullopt;
  }

  // Deep regime: one unimodal window per coil pass.
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
        if (m2 == b1) break;  // a fixed point: nothing changes any more
        b1 = m2;
      } else {
        if (m1 == a1) break;
        a1 = m1;
      }
    }
    const double theta_min = 0.5 * (a1 + b1);
    if (spiral_dist2(sp.center, a, theta_min, target) > eps2) continue;
    return refine_entry(sp, a, target, eps2, lo, theta_min);
  }
  return std::nullopt;
}

std::optional<Time> spiral_first_sighting_from_at(const SpiralMove& sp,
                                                  Vec2 target, double eps,
                                                  Time from, double theta_from,
                                                  double theta_end) {
  const double a = sp.pitch / kTwoPi;
  // Already inside the disc the instant the window opens.
  if ((spiral_point_at(sp.center, a, theta_from) - target).norm2() <=
      eps * eps) {
    return from;
  }
  // Otherwise the scan starts at an outside point, so every bisection
  // anchor clamped to theta_from is a valid outside point.
  return spiral_first_sighting_at(sp, target, eps, theta_end, theta_from);
}

std::optional<Time> line_first_sighting_from(const LineMove& line,
                                             Vec2 target, double eps,
                                             Time from) {
  // Already inside the disc the instant the window opens (the
  // move_position_at interpolation, 0 < from < length).
  const Vec2 d = line.to - line.from;
  const Vec2 at_from = line.from + d * (from / d.norm());
  if ((at_from - target).norm2() <= eps * eps) return from;
  // A line crosses the disc in at most one interval; since the position at
  // `from` is outside, either the entry is still ahead (valid iff >= from)
  // or the disc was exited before `from` (no re-entry).
  const auto hit = line_first_sighting(line, target, eps);
  if (hit && *hit >= from) return hit;
  return std::nullopt;
}

namespace {

/// Single-trial path: solves for theta_end itself.
std::optional<Time> spiral_first_sighting(const SpiralMove& sp, Vec2 target,
                                          double eps) {
  const Vec2 rel = target - sp.center;
  if (rel.norm() <= eps) return 0.0;  // visible from the very first point
  if (sp.duration <= 0) return std::nullopt;
  const double a = sp.pitch / kTwoPi;
  return spiral_first_sighting_at(sp, target, eps,
                                  spiral_theta_for_arc(a, sp.duration));
}

}  // namespace

Time move_duration(const Move& move) noexcept {
  if (const auto* line = std::get_if<LineMove>(&move)) {
    return (line->to - line->from).norm();
  }
  return std::get<SpiralMove>(move).duration;
}

Vec2 move_end(const Move& move) noexcept {
  if (const auto* line = std::get_if<LineMove>(&move)) return line->to;
  const auto& sp = std::get<SpiralMove>(move);
  const double a = sp.pitch / kTwoPi;
  const double theta = spiral_theta_for_arc(a, sp.duration);
  return spiral_point_at(sp.center, a, theta);
}

Vec2 move_position_at(const Move& move, Time t) noexcept {
  if (t <= 0) {
    if (const auto* line = std::get_if<LineMove>(&move)) return line->from;
    return std::get<SpiralMove>(move).center;
  }
  if (t >= move_duration(move)) return move_end(move);
  if (const auto* line = std::get_if<LineMove>(&move)) {
    const Vec2 d = line->to - line->from;
    const double len = d.norm();
    if (len == 0.0) return line->from;
    return line->from + d * (t / len);
  }
  const auto& sp = std::get<SpiralMove>(move);
  const double a = sp.pitch / kTwoPi;
  return spiral_point_at(sp.center, a, spiral_theta_for_arc(a, t));
}

std::optional<Time> first_sighting(const Move& move, Vec2 target, double eps) {
  if (const auto* line = std::get_if<LineMove>(&move)) {
    return line_first_sighting(*line, target, eps);
  }
  return spiral_first_sighting(std::get<SpiralMove>(move), target, eps);
}

std::optional<Time> first_sighting_from(const Move& move, Vec2 target,
                                        double eps, Time from) {
  if (from <= 0) return first_sighting(move, target, eps);
  if (from >= move_duration(move)) return std::nullopt;
  if (const auto* line = std::get_if<LineMove>(&move)) {
    return line_first_sighting_from(*line, target, eps, from);
  }
  // A spiral may re-enter the disc on a later coil: scan the annulus window
  // from the angle reached at arc length `from`.
  const auto& sp = std::get<SpiralMove>(move);
  const double a = sp.pitch / kTwoPi;
  return spiral_first_sighting_from_at(sp, target, eps, from,
                                       spiral_theta_for_arc(a, from),
                                       spiral_theta_for_arc(a, sp.duration));
}

double spiral_arc_length(double a, double theta) noexcept {
  // s(theta) = (a/2) (theta*sqrt(1+theta^2) + asinh(theta)).
  return 0.5 * a * (theta * std::sqrt(1.0 + theta * theta) +
                    std::asinh(theta));
}

double spiral_theta_for_arc(double a, double s) noexcept {
  if (s <= 0 || a <= 0) return 0;
  // s ~ (a/2) theta^2 for large theta: a robust starting point.
  double theta = std::sqrt(2.0 * s / a);
  for (int it = 0; it < 60; ++it) {
    const double f = spiral_arc_length(a, theta) - s;
    const double fp = a * std::sqrt(1.0 + theta * theta);  // ds/dtheta
    const double step = f / fp;
    theta -= step;
    if (theta < 0) theta = 0;
    if (std::abs(step) < 1e-12 * (1.0 + theta)) break;
  }
  return theta;
}

Vec2 spiral_point_at(Vec2 center, double a, double theta) noexcept {
  const double r = a * theta;
  return center + Vec2{r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace ants::plane

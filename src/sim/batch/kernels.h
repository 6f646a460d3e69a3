// The vectorizable primitives of the batch trial executor, as a function
// table selected by SIMD level (simd.h).
//
// Each kernel is a pure array operation over the batch runner's
// struct-of-arrays state, with scalar/SSE2/AVX2 implementations that are
// RESULT-identical by construction:
//
//   * line_candidates evaluates, per target, the same IEEE expression tree
//     the scalar sight test (plane::line_first_sighting) starts with — no
//     FMA contraction, same operation order — so the candidate set equals
//     the set the scalar loop would shortlist; every candidate is then
//     re-checked by the scalar test, making the prefilter byte-safe.
//   * the target-process kernels (window_gate, find_point_gated,
//     drift_positions, dwell_advance) compute exactly the per-target tests
//     of the scalar lock-step loops (sim/trial.cpp): drift_positions
//     reproduces std::llround's half-away-from-zero rounding bit for bit
//     (trunc + exact fraction + ±1 adjust), and the scan/advance kernels
//     emit indices in ascending order so the scalar lowest-target-index
//     tie-break is preserved. A static target is the degenerate process
//     (always alive, never drifting), so find_point_gated with every gate
//     byte set is also the static occupancy scan.
//
// Agent scheduling needs no kernel: the segment and plane backends advance
// agents in epochs (batch.h), where outcomes are order-independent minima
// over hits and segment/crash counts are reconciled to the final bound, so
// nothing scans for the earliest clock.
//
// Kernels never allocate and have no internal state; the dispatch level is
// chosen per batch by the runner via kernels_for(active_simd_level()).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/batch/simd.h"

namespace ants::sim::batch {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

struct Kernels {
  SimdLevel level = SimdLevel::kScalar;

  /// Sight-disc prefilter for a unit-direction line move from (fx, fy):
  /// writes the indices (ascending) of every target that could be sighted —
  /// start inside the disc (|w|^2 <= eps^2) or nonnegative quadratic
  /// discriminant ((w.u)^2 - (|w|^2 - eps^2) >= 0) — and returns the count.
  /// `out` must have room for n entries. Callers re-check candidates with
  /// plane::line_first_sighting (range test included there).
  std::size_t (*line_candidates)(const double* tx, const double* ty,
                                 std::size_t n, double fx, double fy,
                                 double ux, double uy, double eps,
                                 std::uint32_t* out);

  /// out[i] = 1 iff appear[i] <= t && t < vanish[i], else 0 — the scalar
  /// lock-step loop's per-target liveness test over the whole target block.
  void (*window_gate)(const double* appear, const double* vanish,
                      std::size_t n, double t, char* out);

  /// First i with gate[i] != 0 && xs[i] == x && ys[i] == y, else kNpos —
  /// the lock-step backend's in-order occupancy scan over the targets whose
  /// gate byte is set (alive and not yet found; all of them for static
  /// targets).
  std::size_t (*find_point_gated)(const std::int64_t* xs,
                                  const std::int64_t* ys, const char* gate,
                                  std::size_t n, std::int64_t x,
                                  std::int64_t y);

  /// ox[i] = bx[i] + llround(vx[i] * t) (likewise oy) — drifted-target
  /// positions at tick t. Vector variants match std::llround bit for bit.
  void (*drift_positions)(const std::int64_t* bx, const std::int64_t* by,
                          const double* vx, const double* vy, std::size_t n,
                          double t, std::int64_t* ox, std::int64_t* oy);

  /// Dwell-contact advance for one agent standing at (x, y): per target i,
  /// held[i] <- held[i] + 1 when alive[i] && |tx[i]-x| + |ty[i]-y| <= 1,
  /// else 0. Writes the indices (ascending) of every confirmable target
  /// (found[i] == 0 && held[i] >= need) to `out`, returns the count. `out`
  /// must have room for n entries. (held of already-found targets keeps
  /// advancing where the scalar loop freezes it — unobservable, since
  /// confirmation excludes them and nothing else reads held.)
  std::size_t (*dwell_advance)(const std::int64_t* tx, const std::int64_t* ty,
                               const char* alive, const char* found,
                               std::size_t n, std::int64_t x, std::int64_t y,
                               std::int64_t* held, std::int64_t need,
                               std::uint32_t* out);
};

/// The kernel table for `level` (clamping is the caller's concern; passing
/// an unsupported level returns that level's table regardless — only tests
/// that bypass active_simd_level() can do this, on hardware they control).
const Kernels& kernels_for(SimdLevel level) noexcept;

}  // namespace ants::sim::batch

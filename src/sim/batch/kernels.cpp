#include "sim/batch/kernels.h"

#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define ANTS_BATCH_X86 1
#include <immintrin.h>
#endif

namespace ants::sim::batch {

namespace {

// --- scalar ----------------------------------------------------------------

std::size_t find_point_scalar(const std::int64_t* xs, const std::int64_t* ys,
                              std::size_t n, std::int64_t x, std::int64_t y) {
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

std::size_t line_candidates_scalar(const double* tx, const double* ty,
                                   std::size_t n, double fx, double fy,
                                   double ux, double uy, double eps,
                                   std::uint32_t* out) {
  // Mirrors the head of plane::line_first_sighting operation for operation
  // (w = from - target; |w|^2 vs eps^2; disc = (w.u)^2 - (|w|^2 - eps^2)),
  // so the pass set is the exact set the scalar test would shortlist.
  const double e2 = eps * eps;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wx = fx - tx[i];
    const double wy = fy - ty[i];
    const double wn2 = wx * wx + wy * wy;
    const double b = wx * ux + wy * uy;
    const double disc = b * b - (wn2 - e2);
    if (wn2 <= e2 || disc >= 0.0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

void window_gate_scalar(const double* appear, const double* vanish,
                        std::size_t n, double t, char* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (appear[i] <= t && t < vanish[i]) ? 1 : 0;
  }
}

std::size_t find_point_gated_scalar(const std::int64_t* xs,
                                    const std::int64_t* ys, const char* gate,
                                    std::size_t n, std::int64_t x,
                                    std::int64_t y) {
  for (std::size_t i = 0; i < n; ++i) {
    if (gate[i] != 0 && xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

void drift_positions_scalar(const std::int64_t* bx, const std::int64_t* by,
                            const double* vx, const double* vy, std::size_t n,
                            double t, std::int64_t* ox, std::int64_t* oy) {
  for (std::size_t i = 0; i < n; ++i) {
    ox[i] = bx[i] + std::llround(vx[i] * t);
    oy[i] = by[i] + std::llround(vy[i] * t);
  }
}

std::size_t dwell_advance_scalar(const std::int64_t* tx,
                                 const std::int64_t* ty, const char* alive,
                                 const char* found, std::size_t n,
                                 std::int64_t x, std::int64_t y,
                                 std::int64_t* held, std::int64_t need,
                                 std::uint32_t* out) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t dx = tx[i] - x;
    const std::int64_t dy = ty[i] - y;
    const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
    const bool in_disc = alive[i] != 0 && l1 <= 1;
    held[i] = in_disc ? held[i] + 1 : 0;
    if (found[i] == 0 && held[i] >= need) {
      out[m++] = static_cast<std::uint32_t>(i);
    }
  }
  return m;
}

#if defined(ANTS_BATCH_X86)

// --- SSE2 (x86-64 baseline) ------------------------------------------------
//
// Pair equality (via 32-bit halves), the window gate, and the line
// prefilter vectorize two-wide.

std::size_t find_point_sse2(const std::int64_t* xs, const std::int64_t* ys,
                            std::size_t n, std::int64_t x, std::int64_t y) {
  const __m128i px = _mm_set1_epi64x(x);
  const __m128i py = _mm_set1_epi64x(y);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i ex = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + i)), px);
    const __m128i ey = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ys + i)), py);
    const int mask = _mm_movemask_epi8(_mm_and_si128(ex, ey));
    // A 64-bit lane matches iff both of its 32-bit halves compared equal.
    if ((mask & 0xFF) == 0xFF) return i;
    if ((mask >> 8) == 0xFF) return i + 1;
  }
  for (; i < n; ++i) {
    if (xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

std::size_t line_candidates_sse2(const double* tx, const double* ty,
                                 std::size_t n, double fx, double fy,
                                 double ux, double uy, double eps,
                                 std::uint32_t* out) {
  const double e2 = eps * eps;
  const __m128d vfx = _mm_set1_pd(fx);
  const __m128d vfy = _mm_set1_pd(fy);
  const __m128d vux = _mm_set1_pd(ux);
  const __m128d vuy = _mm_set1_pd(uy);
  const __m128d ve2 = _mm_set1_pd(e2);
  const __m128d zero = _mm_setzero_pd();
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // Discrete mul/add/sub intrinsics: no FMA contraction, so every lane
    // computes the identical IEEE value the scalar expression does.
    const __m128d wx = _mm_sub_pd(vfx, _mm_loadu_pd(tx + i));
    const __m128d wy = _mm_sub_pd(vfy, _mm_loadu_pd(ty + i));
    const __m128d wn2 =
        _mm_add_pd(_mm_mul_pd(wx, wx), _mm_mul_pd(wy, wy));
    const __m128d b =
        _mm_add_pd(_mm_mul_pd(wx, vux), _mm_mul_pd(wy, vuy));
    const __m128d disc =
        _mm_sub_pd(_mm_mul_pd(b, b), _mm_sub_pd(wn2, ve2));
    const __m128d pass =
        _mm_or_pd(_mm_cmple_pd(wn2, ve2), _mm_cmpge_pd(disc, zero));
    const int mask = _mm_movemask_pd(pass);
    if (mask & 1) out[m++] = static_cast<std::uint32_t>(i);
    if (mask & 2) out[m++] = static_cast<std::uint32_t>(i + 1);
  }
  for (; i < n; ++i) {
    const double wx = fx - tx[i];
    const double wy = fy - ty[i];
    const double wn2 = wx * wx + wy * wy;
    const double b = wx * ux + wy * uy;
    const double disc = b * b - (wn2 - e2);
    if (wn2 <= e2 || disc >= 0.0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

void window_gate_sse2(const double* appear, const double* vanish,
                      std::size_t n, double t, char* out) {
  const __m128d vt = _mm_set1_pd(t);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ok =
        _mm_and_pd(_mm_cmple_pd(_mm_loadu_pd(appear + i), vt),
                   _mm_cmplt_pd(vt, _mm_loadu_pd(vanish + i)));
    const int mask = _mm_movemask_pd(ok);
    out[i] = static_cast<char>(mask & 1);
    out[i + 1] = static_cast<char>((mask >> 1) & 1);
  }
  for (; i < n; ++i) out[i] = (appear[i] <= t && t < vanish[i]) ? 1 : 0;
}

std::size_t find_point_gated_sse2(const std::int64_t* xs,
                                  const std::int64_t* ys, const char* gate,
                                  std::size_t n, std::int64_t x,
                                  std::int64_t y) {
  const __m128i px = _mm_set1_epi64x(x);
  const __m128i py = _mm_set1_epi64x(y);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i ex = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + i)), px);
    const __m128i ey = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ys + i)), py);
    const int mask = _mm_movemask_epi8(_mm_and_si128(ex, ey));
    // A 64-bit lane matches iff both of its 32-bit halves compared equal;
    // the gate byte is checked only for matched lanes, in ascending order.
    if ((mask & 0xFF) == 0xFF && gate[i] != 0) return i;
    if ((mask >> 8) == 0xFF && gate[i + 1] != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (gate[i] != 0 && xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

// drift_positions and dwell_advance stay scalar at SSE2: both pivot on
// 64-bit integer compares/abs (and a bit-exact double->int64 round), none
// of which SSE2 offers.

// --- AVX2 (compiled per-function via target attribute) ---------------------

__attribute__((target("avx2"))) std::size_t find_point_avx2(
    const std::int64_t* xs, const std::int64_t* ys, std::size_t n,
    std::int64_t x, std::int64_t y) {
  const __m256i px = _mm256_set1_epi64x(x);
  const __m256i py = _mm256_set1_epi64x(y);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ex = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i)), px);
    const __m256i ey = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ys + i)), py);
    const int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_and_si256(ex, ey)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

__attribute__((target("avx2"))) std::size_t line_candidates_avx2(
    const double* tx, const double* ty, std::size_t n, double fx, double fy,
    double ux, double uy, double eps, std::uint32_t* out) {
  const double e2 = eps * eps;
  const __m256d vfx = _mm256_set1_pd(fx);
  const __m256d vfy = _mm256_set1_pd(fy);
  const __m256d vux = _mm256_set1_pd(ux);
  const __m256d vuy = _mm256_set1_pd(uy);
  const __m256d ve2 = _mm256_set1_pd(e2);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wx = _mm256_sub_pd(vfx, _mm256_loadu_pd(tx + i));
    const __m256d wy = _mm256_sub_pd(vfy, _mm256_loadu_pd(ty + i));
    const __m256d wn2 =
        _mm256_add_pd(_mm256_mul_pd(wx, wx), _mm256_mul_pd(wy, wy));
    const __m256d b =
        _mm256_add_pd(_mm256_mul_pd(wx, vux), _mm256_mul_pd(wy, vuy));
    const __m256d disc =
        _mm256_sub_pd(_mm256_mul_pd(b, b), _mm256_sub_pd(wn2, ve2));
    const __m256d pass = _mm256_or_pd(_mm256_cmp_pd(wn2, ve2, _CMP_LE_OQ),
                                      _mm256_cmp_pd(disc, zero, _CMP_GE_OQ));
    int mask = _mm256_movemask_pd(pass);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      mask &= mask - 1;
      out[m++] = static_cast<std::uint32_t>(i + static_cast<std::size_t>(lane));
    }
  }
  for (; i < n; ++i) {
    const double wx = fx - tx[i];
    const double wy = fy - ty[i];
    const double wn2 = wx * wx + wy * wy;
    const double b = wx * ux + wy * uy;
    const double disc = b * b - (wn2 - e2);
    if (wn2 <= e2 || disc >= 0.0) out[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

__attribute__((target("avx2"))) void window_gate_avx2(const double* appear,
                                                      const double* vanish,
                                                      std::size_t n, double t,
                                                      char* out) {
  const __m256d vt = _mm256_set1_pd(t);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ok = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(appear + i), vt, _CMP_LE_OQ),
        _mm256_cmp_pd(vt, _mm256_loadu_pd(vanish + i), _CMP_LT_OQ));
    const int mask = _mm256_movemask_pd(ok);
    out[i] = static_cast<char>(mask & 1);
    out[i + 1] = static_cast<char>((mask >> 1) & 1);
    out[i + 2] = static_cast<char>((mask >> 2) & 1);
    out[i + 3] = static_cast<char>((mask >> 3) & 1);
  }
  for (; i < n; ++i) out[i] = (appear[i] <= t && t < vanish[i]) ? 1 : 0;
}

__attribute__((target("avx2"))) std::size_t find_point_gated_avx2(
    const std::int64_t* xs, const std::int64_t* ys, const char* gate,
    std::size_t n, std::int64_t x, std::int64_t y) {
  const __m256i px = _mm256_set1_epi64x(x);
  const __m256i py = _mm256_set1_epi64x(y);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ex = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i)), px);
    const __m256i ey = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ys + i)), py);
    int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_and_si256(ex, ey)));
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      mask &= mask - 1;
      if (gate[i + static_cast<std::size_t>(lane)] != 0) {
        return i + static_cast<std::size_t>(lane);
      }
    }
  }
  for (; i < n; ++i) {
    if (gate[i] != 0 && xs[i] == x && ys[i] == y) return i;
  }
  return kNpos;
}

__attribute__((target("avx2"))) void drift_positions_avx2(
    const std::int64_t* bx, const std::int64_t* by, const double* vx,
    const double* vy, std::size_t n, double t, std::int64_t* ox,
    std::int64_t* oy) {
  // std::llround (round half AWAY from zero), emulated bit-exactly:
  // tr = trunc(p); frac = p - tr is exact (Sterbenz: tr is 0 or within a
  // factor of two of p); |frac| >= 0.5 adds copysign(1, p). The final
  // double->int64 conversion is per-lane scalar — there is no packed
  // cvtpd_epi64 below AVX-512 — on an integral-valued double, so exact.
  const __m256d vt = _mm256_set1_pd(t);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  alignas(32) double rounded[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int axis = 0; axis < 2; ++axis) {
      const double* v = axis == 0 ? vx : vy;
      const std::int64_t* base = axis == 0 ? bx : by;
      std::int64_t* o = axis == 0 ? ox : oy;
      const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(v + i), vt);
      const __m256d tr =
          _mm256_round_pd(p, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __m256d frac = _mm256_sub_pd(p, tr);
      const __m256d afrac = _mm256_andnot_pd(sign_mask, frac);
      const __m256d bump =
          _mm256_and_pd(_mm256_cmp_pd(afrac, half, _CMP_GE_OQ),
                        _mm256_or_pd(one, _mm256_and_pd(sign_mask, p)));
      _mm256_store_pd(rounded, _mm256_add_pd(tr, bump));
      for (std::size_t l = 0; l < 4; ++l) {
        o[i + l] = base[i + l] + static_cast<std::int64_t>(rounded[l]);
      }
    }
  }
  for (; i < n; ++i) {
    ox[i] = bx[i] + std::llround(vx[i] * t);
    oy[i] = by[i] + std::llround(vy[i] * t);
  }
}

__attribute__((target("avx2"))) std::size_t dwell_advance_avx2(
    const std::int64_t* tx, const std::int64_t* ty, const char* alive,
    const char* found, std::size_t n, std::int64_t x, std::int64_t y,
    std::int64_t* held, std::int64_t need, std::uint32_t* out) {
  const __m256i px = _mm256_set1_epi64x(x);
  const __m256i py = _mm256_set1_epi64x(y);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i vneed = _mm256_set1_epi64x(need);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i dx = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx + i)), px);
    const __m256i dy = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ty + i)), py);
    // |d| via sign-xor-sub (no abs_epi64 below AVX-512).
    const __m256i sx = _mm256_cmpgt_epi64(zero, dx);
    const __m256i sy = _mm256_cmpgt_epi64(zero, dy);
    const __m256i l1 =
        _mm256_add_epi64(_mm256_sub_epi64(_mm256_xor_si256(dx, sx), sx),
                         _mm256_sub_epi64(_mm256_xor_si256(dy, sy), sy));
    std::uint32_t abits;
    std::uint32_t fbits;
    std::memcpy(&abits, alive + i, 4);
    std::memcpy(&fbits, found + i, 4);
    const __m256i alv = _mm256_cmpgt_epi64(
        _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(static_cast<int>(abits))),
        zero);
    const __m256i in_disc =
        _mm256_andnot_si256(_mm256_cmpgt_epi64(l1, one), alv);
    const __m256i hnew = _mm256_and_si256(
        _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(held + i)),
            one),
        in_disc);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(held + i), hnew);
    const __m256i fnd = _mm256_cmpgt_epi64(
        _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(static_cast<int>(fbits))),
        zero);
    // Confirmable: NOT (held < need) AND NOT found.
    const __m256i blocked =
        _mm256_or_si256(_mm256_cmpgt_epi64(vneed, hnew), fnd);
    int mask = ~_mm256_movemask_pd(_mm256_castsi256_pd(blocked)) & 0xF;
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      mask &= mask - 1;
      out[m++] = static_cast<std::uint32_t>(i + static_cast<std::size_t>(lane));
    }
  }
  for (; i < n; ++i) {
    const std::int64_t ddx = tx[i] - x;
    const std::int64_t ddy = ty[i] - y;
    const std::int64_t l1 = (ddx < 0 ? -ddx : ddx) + (ddy < 0 ? -ddy : ddy);
    const bool in_disc = alive[i] != 0 && l1 <= 1;
    held[i] = in_disc ? held[i] + 1 : 0;
    if (found[i] == 0 && held[i] >= need) {
      out[m++] = static_cast<std::uint32_t>(i);
    }
  }
  return m;
}

#endif  // ANTS_BATCH_X86

}  // namespace

const Kernels& kernels_for(SimdLevel level) noexcept {
  static const Kernels scalar{SimdLevel::kScalar,      find_point_scalar,
                              line_candidates_scalar,  window_gate_scalar,
                              find_point_gated_scalar, drift_positions_scalar,
                              dwell_advance_scalar};
#if defined(ANTS_BATCH_X86)
  static const Kernels sse2{SimdLevel::kSse2,      find_point_sse2,
                            line_candidates_sse2,  window_gate_sse2,
                            find_point_gated_sse2, drift_positions_scalar,
                            dwell_advance_scalar};
  static const Kernels avx2{SimdLevel::kAvx2,      find_point_avx2,
                            line_candidates_avx2,  window_gate_avx2,
                            find_point_gated_avx2, drift_positions_avx2,
                            dwell_advance_avx2};
  switch (level) {
    case SimdLevel::kAvx2:
      return avx2;
    case SimdLevel::kSse2:
      return sse2;
    case SimdLevel::kScalar:
    default:
      return scalar;
  }
#else
  (void)level;
  return scalar;
#endif
}

}  // namespace ants::sim::batch

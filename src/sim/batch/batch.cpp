#include "sim/batch/batch.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "grid/spiral.h"
#include "grid/staircase_path.h"
#include "util/sat.h"

namespace ants::sim::batch {

namespace {

/// Epoch ceilings sit an eighth above the epoch floor (the earliest live
/// clock), so the last epoch overshoots the final bound by a fraction of a
/// percent of the trial's segments (0.15% on the benchmark campaign).
Time epoch_ceiling(Time floor) noexcept {
  // floor <= util::kTimeCap (run_segment delegates larger starts), so the
  // sum cannot overflow.
  return floor + std::max<Time>(floor / 8, 0);
}

/// Plane agents act only while their clock is strictly below the ceiling,
/// so a plane ceiling always lies at least one time unit above its floor.
double epoch_ceiling(double floor) noexcept {
  return floor + std::max(floor / 8, 1.0);
}

/// Whether an agent whose clock is `clock` runs its next segment under
/// `limit` = min(ceiling, bound). The grid heap runs a segment iff its start
/// is <= the bound; the plane heap iff it is < the bound.
bool acts(Time clock, Time limit) noexcept { return clock <= limit; }
bool acts(double clock, double limit) noexcept { return clock < limit; }

/// The target kinds the grid loops are instantiated for (see
/// BatchRunner::run_segment). Being file-local, they give each
/// instantiation internal linkage, so GCC inlines its single-use helpers —
/// the epoch advance and the per-segment step — as in a plain function.
struct StaticTargets {
  static constexpr bool kDynamic = false;
};
struct TargetProcess {
  static constexpr bool kDynamic = true;
};

const char* budget_error(Time) noexcept {
  return "run_trial: agent exceeded segment budget without terminating";
}
const char* budget_error(double) noexcept {
  return "plane engine: agent exceeded segment budget without terminating";
}

}  // namespace

BatchRunner::BatchRunner(const TrialStrategy& strategy, int k,
                         const EngineConfig& config)
    : strategy_(strategy),
      k_(k),
      config_(config),
      kernels_(&kernels_for(active_simd_level())) {
  const int set = (strategy.segment != nullptr ? 1 : 0) +
                  (strategy.step != nullptr ? 1 : 0) +
                  (strategy.plane != nullptr ? 1 : 0);
  if (set == 0) throw std::invalid_argument("BatchRunner: no strategy given");
  if (set > 1) {
    throw std::invalid_argument("BatchRunner: ambiguous strategy family");
  }
  if (k < 1) throw std::invalid_argument("BatchRunner: need k >= 1");
}

TrialResult BatchRunner::run_one(const TrialEnvironment& env,
                                 const rng::Rng& trial_rng) {
  kernels_ = &kernels_for(active_simd_level());
  detail::validate_trial_args(strategy_, k_, env, config_);
  if (strategy_.plane != nullptr) return run_plane(env, trial_rng);
  if (strategy_.step != nullptr) {
    return env.has_dynamic_targets() ? run_step<TargetProcess>(env, trial_rng)
                                     : run_step<StaticTargets>(env, trial_rng);
  }
  return env.has_dynamic_targets() ? run_segment<TargetProcess>(env, trial_rng)
                                   : run_segment<StaticTargets>(env, trial_rng);
}

// ---------------------------------------------------------------------------
// Epoch advance (segment and plane backends).
//
// Each epoch walks the live agents in index order; an agent runs segments
// back to back while its clock is within min(ceiling, bound), recording
// each segment's start. When the bound (the race's current stopping time)
// falls inside the ceiling, or nobody is left, that epoch is the last.
// Otherwise every segment of the epoch is inside the final bound — each
// later hit comes after the ceiling, since every live clock is past it — so
// its segments and crashes are counted, a refused segment throws, and the
// next epoch starts from the earliest live clock.

template <typename Clock, typename Step>
Clock BatchRunner::advance_epochs(const std::vector<Clock>& clock,
                                  const Clock& bound, Step&& step,
                                  std::int64_t* segments, int* crashed) {
  constexpr bool kGrid = std::is_integral_v<Clock>;
  const auto clear_log = [this] {
    runs_.clear();
    starts_.clear();
    wide_starts_.clear();
    pstarts_.clear();
    repeats_.clear();
    epoch_segments_ = 0;
  };
  clear_log();
  if (live_.empty()) return Clock{};
  Clock floor = clock[live_.front()];
  for (const std::uint32_t a : live_) floor = std::min(floor, clock[a]);

  const std::int64_t budget = config_.max_segments_per_agent;
  for (;;) {
    const Clock ceiling = epoch_ceiling(floor);
    // Grid starts lie in [floor, ceiling]: uint32 offsets from the floor,
    // unless clocks are so large (past ~2^35) that the span overflows them.
    const bool wide =
        kGrid && ceiling - floor > std::numeric_limits<std::uint32_t>::max();
    clear_log();
    std::size_t run_first = 0;  // the current agent's first log entry
    // A start equal to the previous one of the same agent (a zero-duration
    // or saturated segment) extends that entry's repeat count, so an agent
    // stalled on one clock until the segment budget trips costs no memory.
    const auto record = [&](Clock start) {
      const std::size_t n =
          starts_.size() + wide_starts_.size() + pstarts_.size();
      bool repeat = false;
      if (n > run_first) {
        if constexpr (kGrid) {
          repeat = wide ? wide_starts_.back() == start
                        : floor + static_cast<Clock>(starts_.back()) == start;
        } else {
          repeat = pstarts_.back() == start;
        }
      }
      if (repeat) {
        const auto entry = static_cast<std::uint32_t>(n - 1);
        if (repeats_.empty() || repeats_.back().entry != entry) {
          repeats_.push_back(EpochRepeat{entry, 0});
        }
        ++repeats_.back().extra;
      } else if constexpr (kGrid) {
        if (wide) {
          wide_starts_.push_back(start);
        } else {
          starts_.push_back(static_cast<std::uint32_t>(start - floor));
        }
      } else {
        pstarts_.push_back(start);
      }
      ++epoch_segments_;
    };
    Clock next_floor = std::numeric_limits<Clock>::max();
    std::size_t kept = 0;
    for (std::size_t li = 0; li < live_.size(); ++li) {
      const std::uint32_t a = live_[li];
      if (acts(clock[a], std::min(ceiling, bound))) {
        run_first = starts_.size() + wide_starts_.size() + pstarts_.size();
        bool died = false;
        bool refused = false;
        do {
          record(clock[a]);
          if (seg_count_[a] >= budget) {
            refused = true;
            break;
          }
          ++seg_count_[a];
          if (step(a)) {
            died = true;
            break;
          }
        } while (acts(clock[a], std::min(ceiling, bound)));
        const auto entries =
            starts_.size() + wide_starts_.size() + pstarts_.size();
        runs_.push_back(EpochRun{a, static_cast<std::uint32_t>(entries),
                                 epoch_segments_, died, refused});
        if (died || refused) continue;
      }
      live_[kept++] = a;
      next_floor = std::min(next_floor, clock[a]);
    }
    live_.resize(kept);
    if (live_.empty() || bound <= ceiling) return floor;

    for (const EpochRun& run : runs_) {
      if (run.refused) throw std::runtime_error(budget_error(Clock{}));
      *crashed += run.crashed ? 1 : 0;
    }
    *segments += static_cast<std::int64_t>(epoch_segments_);
    floor = next_floor;
  }
}

template <typename Clock, typename Inside>
void BatchRunner::settle_final_epoch(Clock floor, Inside inside,
                                     Clock tie_time, int tie_agent,
                                     std::uint64_t tie_last,
                                     std::int64_t* segments,
                                     int* crashed) const {
  std::size_t entry = 0;
  std::size_t rep = 0;
  std::uint64_t seg = 0;  // epoch ordinal of the entry's first segment
  for (const EpochRun& run : runs_) {
    const int a = static_cast<int>(run.agent);
    // An agent's starts never decrease, so once one falls outside, the rest
    // of its run does too.
    for (; entry < run.entries_end; ++entry) {
      std::uint64_t n = 1;  // segments starting at this entry's start
      if (rep < repeats_.size() && repeats_[rep].entry == entry) {
        n += repeats_[rep++].extra;
      }
      Clock start;
      if constexpr (std::is_integral_v<Clock>) {
        start = wide_starts_.empty()
                    ? floor + static_cast<Clock>(starts_[entry])
                    : wide_starts_[entry];
      } else {
        start = pstarts_[entry];
      }
      std::uint64_t counted = 0;
      if (inside(start) || (start == tie_time && a < tie_agent)) {
        counted = n;
      } else if (start == tie_time && a == tie_agent && tie_last >= seg) {
        counted = std::min(n, tie_last - seg + 1);
      }
      if (seg + counted == run.end) {  // the run's last segment counts
        if (run.refused) throw std::runtime_error(budget_error(Clock{}));
        if (run.crashed) ++*crashed;
      }
      *segments += static_cast<std::int64_t>(counted);
      seg += n;
      if (counted < n) break;
    }
    while (rep < repeats_.size() && repeats_[rep].entry < run.entries_end) {
      ++rep;
    }
    entry = run.entries_end;
    seg = run.end;
  }
}

// Collect-all: the decisive time T is the time the last target falls. At T
// the heap ran the segments starting before T, then those starting at T in
// agent order up to the one that finds the last target found at T only on
// a segment's first node; a target's first-node finder is credited only if
// the heap ran that segment.
template <typename Clock, typename Inside, typename Result>
void BatchRunner::settle_collect_all(Clock floor, Inside inside,
                                     const std::vector<Clock>& best,
                                     const std::vector<Clock>& zbest,
                                     Clock never, Clock cap, Clock last_start,
                                     Result* result) const {
  const std::size_t nt = best.size();
  Clock decisive = 0;  // never while some target is unfound
  for (std::size_t ti = 0; ti < nt; ++ti) {
    decisive = std::max(decisive, std::min(best[ti], zbest[ti]));
  }
  int tie_agent = -1;
  std::uint64_t tie_last = 0;
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (zbest[ti] != decisive || best[ti] <= decisive) continue;
    const int f = zfinder_t_[ti];
    const std::uint64_t r = zrecord_t_[ti];
    if (f > tie_agent) {
      tie_agent = f;
      tie_last = r;
    } else if (f == tie_agent) {
      tie_last = std::max(tie_last, r);
    }
  }
  settle_final_epoch(floor, inside, decisive, tie_agent, tie_last,
                     &result->segments, &result->crashed);

  // Each target's time and finder as the heap credits them; the earliest
  // find (ties: lowest agent, then lowest target) fills finder and
  // first_target, also when the race is censored.
  Clock first_time = never;
  for (std::size_t ti = 0; ti < nt; ++ti) {
    const Clock b = std::min(best[ti], zbest[ti]);
    if (b == never) continue;
    int f = best[ti] == b ? finder_t_[ti] : INT_MAX;
    const bool heap_ran_it =
        b != decisive || zfinder_t_[ti] < tie_agent ||
        (zfinder_t_[ti] == tie_agent && zrecord_t_[ti] <= tie_last);
    if (zbest[ti] == b && heap_ran_it) f = std::min(f, zfinder_t_[ti]);
    result->target_times[ti] = static_cast<double>(b);
    if (b < first_time || (b == first_time && f < result->finder)) {
      first_time = b;
      result->finder = f;
      result->first_target = static_cast<int>(ti);
    }
  }
  if (decisive != never) {
    result->found = true;
    result->time = static_cast<double>(decisive);
    result->from_last_start =
        static_cast<double>(decisive > last_start ? decisive - last_start : 0);
  } else {
    result->found = false;
    result->time = static_cast<double>(cap);
    result->from_last_start = static_cast<double>(cap);
  }
}

// ---------------------------------------------------------------------------
// Segment backend: the scalar executor's heap sweeps (see sim/trial.cpp) run
// as epoch advance, with the Segment variant flattened into direct hit
// tests. A static target is the degenerate target process: no window and
// first-find mode (drift and dwell were rejected by validate_trial_args for
// this family); its instantiation (kDynamic = false) folds the window and
// collect-all branches away and keeps the scalar path's origin-target
// shortcut. A walk's targets are prefiltered by the endpoint bounding
// box (a staircase is monotone, so it never leaves it), and the
// StaircasePath is only constructed when some target survives the box.
//
// Under a target process a target is skipped before any geometry when it
// vanished by the segment's start or (collect-all) was found strictly
// before it; otherwise the scans reproduce hit_offset_from exactly: walks
// and spirals visit each node at most once, so their unique hit counts iff
// its offset is not before the window's first admissible offset; explicit
// paths rescan from that offset.
//
// The first-find race ranks hits by (time, lying past the segment's first
// node, agent, target). The second key is the heap's order at the decisive
// time T: it pops every segment starting before T — so every hit at T past
// a first node — before any segment starting at T, and once the bound drops
// below T it pops none of those. A hit at the start time of its segment (a
// target appearing under a resting agent, a clock saturated at
// util::kTimeCap) only counts when no hit at T lies past a first node.
// Collect-all keeps per-target bests on and past a segment's first node
// with their epoch ordinals, reconciled by settle_collect_all; its bound is
// min(cap, the loosest per-target best - 1), the cap while any target is
// unfound.

template <typename Targets>
TrialResult BatchRunner::run_segment(const TrialEnvironment& env,
                                     const rng::Rng& trial_rng) {
  constexpr bool kDynamic = Targets::kDynamic;
  if (env.last_start() > util::kTimeCap) {
    // A hand-built start beyond the saturation cap: the agent's clock would
    // fall back to kTimeCap after its first segment, and its hits would
    // precede that segment's start — the two orderings epoch advance rests
    // on. No schedule draws such starts; delegate, counted.
    ++scalar_fallbacks_;
    return run_trial(strategy_, k_, env, trial_rng, config_);
  }
  const Strategy& strategy = *strategy_.segment;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);
  const Time cap = config_.time_cap;
  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool windows = kDynamic && env.has_target_windows();
  const bool collect = kDynamic && env.collect_all;

  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (collect) result.target_times.assign(nt, -1.0);
  if (!kDynamic && detail::resolve_origin_target(env, k, cap, &result)) {
    return result;
  }

  seg_programs_.clear();
  rngs_.clear();
  for (int a = 0; a < k; ++a) {
    seg_programs_.push_back(strategy.make_program(AgentContext{a, k}));
    rngs_.push_back(trial_rng.child(static_cast<std::uint64_t>(a)));
  }
  clock_.assign(uk, 0);
  elapsed_.assign(uk, 0);
  pos_x_.assign(uk, 0);
  pos_y_.assign(uk, 0);
  seg_count_.assign(uk, 0);
  live_.clear();
  for (std::size_t ia = 0; ia < uk; ++ia) {
    const Time life = env.lifetimes.empty() ? kNeverTime : env.lifetimes[ia];
    if (life <= 0) {
      ++result.crashed;  // dead on arrival: never acts
      continue;
    }
    clock_[ia] = env.starts.empty() ? Time{0} : env.starts[ia];
    live_.push_back(static_cast<std::uint32_t>(ia));
  }
  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all found at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    return result;
  }

  tgt_x_.resize(nt);
  tgt_y_.resize(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    tgt_x_[ti] = env.targets[ti].x;
    tgt_y_[ti] = env.targets[ti].y;
  }
  if (windows) {
    app_.resize(nt);
    van_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      app_[ti] = detail::appear_of(env, ti);
      van_[ti] = detail::vanish_of(env, ti);
    }
  }

  // First-find race: the best hit so far.
  Time best = kNeverTime;
  bool best_on_first_node = false;
  int finder = -1;
  int first_target = -1;
  std::uint64_t best_record = 0;  // epoch ordinal of the best hit's segment
  Time bound = cap;

  // Collect-all: per-target bests past / on a segment's first node, and the
  // loosest of their minima once every target has one.
  std::size_t n_open = nt;
  if (collect) {
    best_t_.assign(nt, kNeverTime);
    finder_t_.assign(nt, -1);
    zbest_t_.assign(nt, kNeverTime);
    zfinder_t_.assign(nt, -1);
    zrecord_t_.assign(nt, 0);
  }
  const auto found_at = [this](std::size_t ti) {
    return std::min(best_t_[ti], zbest_t_[ti]);
  };
  const auto collect_bound = [&] {
    Time loosest = 0;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      loosest = std::max(loosest, found_at(ti) - 1);
    }
    return std::min(cap, loosest);
  };

  const auto step = [&](std::uint32_t ia) {
    const int a = static_cast<int>(ia);
    const Time start = env.starts.empty() ? Time{0} : env.starts[ia];
    const Time life = env.lifetimes.empty() ? kNeverTime : env.lifetimes[ia];
    const Time seg_start = clock_[ia];
    const grid::Point pos{pos_x_[ia], pos_y_[ia]};

    const auto consider = [&](Time hit, std::size_t ti) {
      const Time when_active = util::sat_add(elapsed_[ia], hit);
      if (when_active > life) return;  // only counts while still alive
      const Time when_abs = util::sat_add(start, when_active);
      if (when_abs > cap) return;
      // The first in-window visit at or past vanish means every later
      // revisit is as well (the live window is one interval).
      if (windows && static_cast<double>(when_abs) >= van_[ti]) return;
      const bool on_first = when_abs == seg_start;
      if (collect) {
        Time& tbest = on_first ? zbest_t_[ti] : best_t_[ti];
        int& tfinder = on_first ? zfinder_t_[ti] : finder_t_[ti];
        if (when_abs < tbest || (when_abs == tbest && a < tfinder)) {
          const Time was = found_at(ti);
          tbest = when_abs;
          tfinder = a;
          if (on_first) zrecord_t_[ti] = epoch_segments_ - 1;
          // The bound moves only when the last open target falls or the
          // loosest one is found earlier.
          if (was == kNeverTime) {
            if (--n_open == 0) bound = collect_bound();
          } else if (n_open == 0 && when_abs < was && was - 1 == bound) {
            bound = collect_bound();
          }
        }
        return;
      }
      if (when_abs < best ||
          (when_abs == best &&
           ((!on_first && best_on_first_node) ||
            (on_first == best_on_first_node && a < finder)))) {
        best = when_abs;
        best_on_first_node = on_first;
        finder = a;
        first_target = static_cast<int>(ti);
        best_record = epoch_segments_ - 1;
        bound = std::min(cap, best - 1);
      }
    };
    // Target-process gates ahead of the hit tests: false when target ti
    // cannot count in this segment; else *from is the window's first
    // admissible offset into it.
    const auto admit = [&](std::size_t ti, Time* from) {
      if (collect && found_at(ti) < seg_start) return false;
      if (!windows) return true;
      if (van_[ti] <= static_cast<double>(seg_start)) return false;
      *from = detail::window_from_offset(app_[ti], seg_start);
      return true;
    };

    Time dur = 0;
    grid::Point end = pos;
    const auto scan_walk = [&](grid::Point from_pt, grid::Point to) {
      const std::int64_t xlo = std::min(from_pt.x, to.x);
      const std::int64_t xhi = std::max(from_pt.x, to.x);
      const std::int64_t ylo = std::min(from_pt.y, to.y);
      const std::int64_t yhi = std::max(from_pt.y, to.y);
      std::optional<grid::StaircasePath> path;
      for (std::size_t ti = 0; ti < nt; ++ti) {
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        if (tgt.x < xlo || tgt.x > xhi || tgt.y < ylo || tgt.y > yhi) continue;
        Time from = 0;
        if (kDynamic && !admit(ti, &from)) continue;
        if (!path) path.emplace(from_pt, to);
        const auto hit = path->index_of(tgt);
        if (hit && *hit >= from) consider(*hit, ti);
      }
      dur = grid::l1_dist(from_pt, to);
      end = to;
    };

    const Op op = seg_programs_[ia]->next(rngs_[ia]);
    if (const auto* go = std::get_if<GoTo>(&op)) {
      scan_walk(pos, go->target);
    } else if (std::get_if<ReturnToSource>(&op) != nullptr) {
      scan_walk(pos, grid::kOrigin);
    } else if (const auto* sp = std::get_if<SpiralFor>(&op)) {
      for (std::size_t ti = 0; ti < nt; ++ti) {
        Time from = 0;
        if (kDynamic && !admit(ti, &from)) continue;
        const std::int64_t idx = grid::spiral_index(
            grid::Point{tgt_x_[ti] - pos.x, tgt_y_[ti] - pos.y});
        if (idx > sp->duration || idx < from) continue;
        consider(idx, ti);
      }
      dur = sp->duration;
      end = pos + grid::spiral_point(sp->duration);
    } else {
      const auto& fp = std::get<FollowPath>(op);
      for (std::size_t ti = 0; ti < nt; ++ti) {
        Time from = 0;
        if (kDynamic && !admit(ti, &from)) continue;
        const grid::Point tgt{tgt_x_[ti], tgt_y_[ti]};
        std::optional<Time> hit;
        if (from == 0 && pos == tgt) {
          hit = 0;
        } else {
          // Paths may revisit: first match at offset >= from (offset i + 1
          // is steps[i]; offset 0 is the start, already < from when > 0).
          for (std::size_t i =
                   from == 0 ? 0 : static_cast<std::size_t>(from - 1);
               i < fp.steps.size(); ++i) {
            if (fp.steps[i] == tgt) {
              hit = static_cast<Time>(i + 1);
              break;
            }
          }
        }
        if (hit) consider(*hit, ti);
      }
      dur = static_cast<Time>(fp.steps.size());
      end = fp.steps.empty() ? pos : fp.steps.back();
    }

    elapsed_[ia] = util::sat_add(elapsed_[ia], dur);
    pos_x_[ia] = end.x;
    pos_y_[ia] = end.y;
    // A crash halts the agent mid-plan, wherever it died.
    if (elapsed_[ia] >= life) return true;
    clock_[ia] = util::sat_add(start, elapsed_[ia]);
    return false;
  };

  const Time floor =
      advance_epochs(clock_, bound, step, &result.segments, &result.crashed);
  const auto inside = [bound](Time s) { return s <= bound; };
  if (collect) {
    settle_collect_all(floor, inside, best_t_, zbest_t_, kNeverTime, cap,
                       last_start, &result);
    return result;
  }
  settle_final_epoch(floor, inside, best, best_on_first_node ? finder : -1,
                     best_record, &result.segments, &result.crashed);
  if (best != kNeverTime) {
    result.found = true;
    result.time = static_cast<double>(best);
    result.finder = finder;
    result.first_target = first_target;
    result.from_last_start =
        static_cast<double>(best > last_start ? best - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(cap);
    result.from_last_start = static_cast<double>(cap);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Lock-step backend: tick-for-tick the scalar run_step_trial loops. A static
// target is the degenerate target process — always alive, never drifting,
// first-find mode — so it keeps only the scalar path's origin-target
// shortcut and otherwise runs the same loop, instantiated with the
// target-process branches folded away (kDynamic = false). The per-target
// liveness test, drifted position, and occupancy gate depend only on the
// tick — not the agent — so they are evaluated ONCE per tick into the
// target SoA (window_gate / drift_positions kernels) where the scalar loop
// recomputes them per (agent, target) pair; each agent's post-move test
// then becomes one gated occupancy scan (find_point_gated) or one
// dwell-contact advance (dwell_advance) over contiguous arrays. Identical
// values either way — this hoist plus the kernel scans are the batch
// path's speedup.

template <typename Targets>
TrialResult BatchRunner::run_step(const TrialEnvironment& env,
                                  const rng::Rng& trial_rng) {
  constexpr bool kDynamic = Targets::kDynamic;
  const StepStrategy& strategy = *strategy_.step;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);

  const Time last_start = env.last_start();
  const std::size_t nt = env.targets.size();
  const bool collect = kDynamic && env.collect_all;
  const bool windows = kDynamic && env.has_target_windows();
  const bool drift = kDynamic && env.has_target_drift();
  const Time dwell = kDynamic ? env.capture_dwell : 0;
  TrialResult result;
  result.last_start = static_cast<double>(last_start);
  if (!kDynamic &&
      detail::resolve_origin_target(env, k, config_.time_cap, &result)) {
    return result;
  }
  if (collect) result.target_times.assign(nt, -1.0);

  const auto start_of = [&](std::size_t ia) {
    return env.starts.empty() ? Time{0} : env.starts[ia];
  };
  const auto lifetime_of = [&](std::size_t ia) {
    return env.lifetimes.empty() ? kNeverTime : env.lifetimes[ia];
  };

  step_programs_.clear();
  rngs_.clear();
  pos_x_.assign(uk, 0);
  pos_y_.assign(uk, 0);
  crashed_.assign(uk, 0);
  for (int a = 0; a < k; ++a) {
    const auto ia = static_cast<std::size_t>(a);
    step_programs_.push_back(strategy.make_program(AgentContext{a, k}));
    rngs_.push_back(trial_rng.child(static_cast<std::uint64_t>(a)));
    if (lifetime_of(ia) <= 0) {
      crashed_[ia] = 1;  // dead on arrival
      ++result.crashed;
    }
  }

  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all found at t = 0; nobody acts.
    result.found = true;
    result.time = 0;
    result.from_last_start = 0;
    return result;
  }

  tgt_x_.resize(nt);
  tgt_y_.resize(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    tgt_x_[ti] = env.targets[ti].x;
    tgt_y_[ti] = env.targets[ti].y;
  }
  if (windows) {
    app_.resize(nt);
    van_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      app_[ti] = detail::appear_of(env, ti);
      van_[ti] = detail::vanish_of(env, ti);
    }
  }
  if (drift) {
    drift_vx_.resize(nt);
    drift_vy_.resize(nt);
    cur_tx_.resize(nt);
    cur_ty_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      drift_vx_[ti] = env.target_drift[ti].vx;
      drift_vy_[ti] = env.target_drift[ti].vy;
    }
  }
  const std::int64_t* tx = drift ? cur_tx_.data() : tgt_x_.data();
  const std::int64_t* ty = drift ? cur_ty_.data() : tgt_y_.data();
  alive_.assign(nt, 1);
  found_.assign(nt, 0);
  if (dwell > 0) {
    held_.assign(uk * nt, 0);
    confirm_.resize(nt);
  } else {
    gate_.assign(nt, 1);  // alive && !found; only windows and finds move it
  }

  std::size_t n_found = 0;
  Time t_last = 0;  // tick of the latest find
  int first_finder = -1;
  int first_ti = -1;

  // nt == 0 (a static race without targets, or a zero-spawn windowed
  // process in first-find mode) still sweeps to the cap so crash/segment
  // accounting matches the segment and plane backends, which run their
  // heaps out naturally.
  for (Time t = 1; t <= config_.time_cap && (nt == 0 || n_found < nt); ++t) {
    const double td = static_cast<double>(t);
    if (drift) {
      if (nt >= 8) {
        kernels_->drift_positions(tgt_x_.data(), tgt_y_.data(),
                                  drift_vx_.data(), drift_vy_.data(), nt, td,
                                  cur_tx_.data(), cur_ty_.data());
      } else {
        for (std::size_t ti = 0; ti < nt; ++ti) {
          cur_tx_[ti] = tgt_x_[ti] + std::llround(drift_vx_[ti] * td);
          cur_ty_[ti] = tgt_y_[ti] + std::llround(drift_vy_[ti] * td);
        }
      }
    }
    if (windows) {
      if (nt >= 8) {
        kernels_->window_gate(app_.data(), van_.data(), nt, td,
                              alive_.data());
      } else {
        for (std::size_t ti = 0; ti < nt; ++ti) {
          alive_[ti] = (app_[ti] <= td && td < van_[ti]) ? 1 : 0;
        }
      }
      if (dwell == 0) {
        for (std::size_t ti = 0; ti < nt; ++ti) {
          gate_[ti] = static_cast<char>(alive_[ti] != 0 && found_[ti] == 0);
        }
      }
    }

    for (int a = 0; a < k; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      if (crashed_[ia]) continue;
      if (t <= start_of(ia)) continue;  // not yet started: waits at source
      const Time active = t - start_of(ia);
      if (active > lifetime_of(ia)) {
        crashed_[ia] = 1;  // halts in place
        ++result.crashed;
        continue;
      }
      const grid::Point next = step_programs_[ia]->step(
          rngs_[ia], grid::Point{pos_x_[ia], pos_y_[ia]});
      assert(grid::l1_dist(next, grid::Point{pos_x_[ia], pos_y_[ia]}) <= 1);
      pos_x_[ia] = next.x;
      pos_y_[ia] = next.y;
      ++result.segments;

      if (dwell > 0) {
        std::int64_t* held = held_.data() + ia * nt;
        std::size_t nc;
        // For a handful of targets the inline scan beats the kernel call
        // (same threshold as the occupancy scan below).
        if (nt >= 8) {
          nc = kernels_->dwell_advance(tx, ty, alive_.data(), found_.data(),
                                       nt, next.x, next.y, held, dwell + 1,
                                       confirm_.data());
        } else {
          nc = 0;
          for (std::size_t ti = 0; ti < nt; ++ti) {
            const std::int64_t dx = tx[ti] - next.x;
            const std::int64_t dy = ty[ti] - next.y;
            const std::int64_t l1 = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
            const bool in_disc = alive_[ti] != 0 && l1 <= 1;
            held[ti] = in_disc ? held[ti] + 1 : 0;
            if (found_[ti] == 0 && held[ti] >= dwell + 1) {
              confirm_[nc++] = static_cast<std::uint32_t>(ti);
            }
          }
        }
        for (std::size_t ci = 0; ci < nc; ++ci) {
          const std::size_t ti = confirm_[ci];
          found_[ti] = 1;
          t_last = t;
          ++n_found;
          if (first_ti < 0) {
            first_finder = a;
            first_ti = static_cast<int>(ti);
          }
          if (collect) {
            result.target_times[ti] = static_cast<double>(t);
            continue;
          }
          result.found = true;
          result.time = static_cast<double>(t);
          result.finder = a;
          result.first_target = static_cast<int>(ti);
          result.from_last_start =
              static_cast<double>(t > last_start ? t - last_start : 0);
          return result;
        }
      } else {
        // One agent step can capture several co-located targets in collect
        // mode (the scalar loop keeps scanning), so the gated scan resumes
        // past each capture. For a handful of targets the in-order inline
        // scan beats the kernel call; same first match either way.
        std::size_t lo = 0;
        for (;;) {
          std::size_t ti = kNpos;
          if (nt - lo < 8) {
            for (std::size_t i = lo; i < nt; ++i) {
              if (gate_[i] != 0 && tx[i] == next.x && ty[i] == next.y) {
                ti = i;
                break;
              }
            }
          } else {
            const std::size_t rel = kernels_->find_point_gated(
                tx + lo, ty + lo, gate_.data() + lo, nt - lo, next.x, next.y);
            if (rel != kNpos) ti = lo + rel;
          }
          if (ti == kNpos) break;
          found_[ti] = 1;
          gate_[ti] = 0;
          t_last = t;
          ++n_found;
          if (first_ti < 0) {
            first_finder = a;
            first_ti = static_cast<int>(ti);
          }
          if (!collect) {
            result.found = true;
            result.time = static_cast<double>(t);
            result.finder = a;
            result.first_target = static_cast<int>(ti);
            result.from_last_start =
                static_cast<double>(t > last_start ? t - last_start : 0);
            return result;
          }
          result.target_times[ti] = static_cast<double>(t);
          lo = ti + 1;
        }
      }
    }
  }

  result.finder = first_finder;
  result.first_target = first_ti;
  if (collect && n_found == nt) {
    result.found = true;
    result.time = static_cast<double>(t_last);
    result.from_last_start =
        static_cast<double>(t_last > last_start ? t_last - last_start : 0);
  } else {
    result.found = false;
    result.time = static_cast<double>(config_.time_cap);
    result.from_last_start = static_cast<double>(config_.time_cap);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Plane backend: the continuous heap sweeps (plane/engine.cpp, static and
// dynamic) run as epoch advance — the heap runs a move iff its start is
// strictly below the bound — with line sight tests prefiltered by the
// line_candidates kernel (every candidate re-checked by the scalar
// quadratic) and the per-move spiral Newton solve memoized.
//
// The first-sighting race keeps one best hit, ranked as in the segment
// backend: (time, past the move's first point, agent, target); its bound is
// min(cap, best). Collect-all keeps per-target bests on and past a move's
// first point with their epoch ordinals, reconciled by settle_collect_all
// as in the segment backend; its bound is min(cap, the loosest per-target
// best),
// the cap while any target is unsighted. Under a target process detection
// is on sighting only (no home-target shortcut), and a target is skipped
// before any geometry when it vanished by the move's start, appears only
// after its end, or (collect-all) was sighted strictly before its start:
// none of those can yield a hit that counts or improves a best.

double BatchRunner::spiral_theta(double a, double s) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(s));
  std::memcpy(&bits, &s, sizeof(bits));
  const std::size_t slot =
      static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 58);
  ThetaMemoEntry& e = theta_memo_[slot];
  if (e.valid && e.s_bits == bits) return e.theta;
  e.s_bits = bits;
  e.theta = plane::spiral_theta_for_arc(a, s);
  e.valid = true;
  return e.theta;
}

TrialResult BatchRunner::run_plane(const TrialEnvironment& env,
                                   const rng::Rng& trial_rng) {
  const plane::PlaneStrategy& strategy = *strategy_.plane;
  const int k = k_;
  const auto uk = static_cast<std::size_t>(k);

  // Environment/config adaptation, exactly as the scalar backend bridge.
  plane_env_.targets = env.plane_targets;
  plane_env_.starts.assign(env.starts.begin(), env.starts.end());
  plane_env_.lifetimes.clear();
  plane_env_.lifetimes.reserve(env.lifetimes.size());
  for (const Time life : env.lifetimes) {
    plane_env_.lifetimes.push_back(life == kNeverTime
                                       ? plane::kPlaneNever
                                       : static_cast<plane::Time>(life));
  }
  plane_env_.target_appear = env.target_appear;
  plane_env_.target_vanish = env.target_vanish;
  plane_env_.windowed = env.windowed;
  plane_env_.collect_all = env.collect_all;

  plane::PlaneEngineConfig pconfig;
  pconfig.sight_radius = config_.sight_radius;
  pconfig.spiral_pitch = config_.spiral_pitch;
  pconfig.time_cap = config_.time_cap == kNeverTime
                         ? plane::kPlaneNever
                         : static_cast<plane::Time>(config_.time_cap);
  pconfig.max_segments_per_agent = config_.max_segments_per_agent;

  plane::detail::validate_plane_trial_args(k, plane_env_, pconfig);
  const double eps = pconfig.sight_radius;
  const double a_coef = pconfig.spiral_pitch / plane::kTwoPi;
  const plane::Time cap = pconfig.time_cap;
  const bool windows = plane_env_.has_target_windows();
  const bool collect = plane_env_.collect_all;
  const bool dynamic = windows || collect;
  const std::size_t nt = plane_env_.targets.size();

  const auto start_of = [&](std::size_t ia) {
    return plane_env_.starts.empty() ? plane::Time{0} : plane_env_.starts[ia];
  };
  const auto lifetime_of = [&](std::size_t ia) {
    return plane_env_.lifetimes.empty() ? plane::kPlaneNever
                                        : plane_env_.lifetimes[ia];
  };

  plane::PlaneTrialResult presult;
  presult.last_start = plane_env_.last_start();
  if (collect) presult.target_times.assign(nt, -1.0);
  const auto finish = [&presult] {
    TrialResult result;
    result.time = presult.time;
    result.found = presult.found;
    result.finder = presult.finder;
    result.first_target = presult.first_target;
    result.segments = presult.segments;
    result.last_start = presult.last_start;
    result.from_last_start = presult.from_last_start;
    result.crashed = presult.crashed;
    result.target_times = std::move(presult.target_times);
    return result;
  };
  if (!dynamic && plane::detail::resolve_home_target(plane_env_, k, eps, cap,
                                                     &presult)) {
    return finish();
  }
  if (collect && nt == 0) {
    // Zero spawned targets: vacuously all sighted at t = 0; nobody acts.
    presult.found = true;
    presult.time = 0;
    presult.from_last_start = 0;
    for (std::size_t ia = 0; ia < uk; ++ia) {
      if (lifetime_of(ia) <= 0) ++presult.crashed;
    }
    return finish();
  }

  plane_programs_.clear();
  rngs_.clear();
  for (int a = 0; a < k; ++a) {
    plane_programs_.push_back(strategy.make_program(a, k));
    rngs_.push_back(trial_rng.child(static_cast<std::uint64_t>(a)));
  }
  pclock_.assign(uk, 0.0);
  pelapsed_.assign(uk, 0.0);
  ppos_x_.assign(uk, 0.0);
  ppos_y_.assign(uk, 0.0);
  seg_count_.assign(uk, 0);
  live_.clear();
  for (std::size_t ia = 0; ia < uk; ++ia) {
    if (lifetime_of(ia) <= 0) {
      ++presult.crashed;  // dead on arrival: never acts
      continue;
    }
    pclock_[ia] = start_of(ia);
    live_.push_back(static_cast<std::uint32_t>(ia));
  }

  ptgt_x_.resize(nt);
  ptgt_y_.resize(nt);
  for (std::size_t ti = 0; ti < nt; ++ti) {
    ptgt_x_[ti] = plane_env_.targets[ti].x;
    ptgt_y_[ti] = plane_env_.targets[ti].y;
  }
  cand_.resize(nt);
  if (windows) {
    // The scalar dynamic loop's defaults: appear at 0, vanish never.
    app_.resize(nt);
    van_.resize(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      app_[ti] =
          plane_env_.target_appear.empty() ? 0.0 : plane_env_.target_appear[ti];
      van_[ti] = plane_env_.target_vanish.empty()
                     ? plane::kPlaneNever
                     : plane_env_.target_vanish[ti];
    }
  }

  // First-sighting race: the best hit so far.
  plane::Time best = plane::kPlaneNever;
  bool best_on_first_node = false;
  int finder = -1;
  int first_target = -1;
  std::uint64_t best_record = 0;  // epoch ordinal of the best hit's move
  plane::Time bound = cap;

  // Collect-all: per-target bests past / on a move's first point, and the
  // loosest of their minima once every target has one.
  std::size_t n_open = nt;
  if (collect) {
    pbest_t_.assign(nt, plane::kPlaneNever);
    finder_t_.assign(nt, -1);
    pzbest_t_.assign(nt, plane::kPlaneNever);
    zfinder_t_.assign(nt, -1);
    zrecord_t_.assign(nt, 0);
  }
  const auto sighted_at = [this](std::size_t ti) {
    return std::min(pbest_t_[ti], pzbest_t_[ti]);
  };
  const auto collect_bound = [&] {
    plane::Time loosest = 0;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      loosest = std::max(loosest, sighted_at(ti));
    }
    return std::min(cap, loosest);
  };

  const auto step = [&](std::uint32_t ia) {
    const int a = static_cast<int>(ia);
    const plane::Time start = start_of(ia);
    const plane::Time life = lifetime_of(ia);
    const plane::Time move_start = pclock_[ia];
    const plane::Vec2 pos{ppos_x_[ia], ppos_y_[ia]};

    const auto consider = [&](plane::Time hit, std::size_t ti) {
      const plane::Time when_active = pelapsed_[ia] + hit;
      if (when_active > life) return;  // only counts while still alive
      const plane::Time when_abs = start + when_active;
      if (when_abs > cap) return;
      // The first in-window sighting at or past vanish means every later
      // pass is as well (sighting offsets increase along the move).
      if (windows && when_abs >= van_[ti]) return;
      const bool on_first = when_abs == move_start;
      if (collect) {
        plane::Time& tbest = on_first ? pzbest_t_[ti] : pbest_t_[ti];
        int& tfinder = on_first ? zfinder_t_[ti] : finder_t_[ti];
        if (when_abs < tbest || (when_abs == tbest && a < tfinder)) {
          const plane::Time was = sighted_at(ti);
          tbest = when_abs;
          tfinder = a;
          if (on_first) zrecord_t_[ti] = epoch_segments_ - 1;
          // The bound moves only when the last open target falls or the
          // loosest one is sighted earlier.
          if (was == plane::kPlaneNever) {
            if (--n_open == 0) bound = collect_bound();
          } else if (n_open == 0 && when_abs < was && was == bound) {
            bound = collect_bound();
          }
        }
        return;
      }
      if (when_abs < best ||
          (when_abs == best &&
           ((!on_first && best_on_first_node) ||
            (on_first == best_on_first_node && a < finder)))) {
        best = when_abs;
        best_on_first_node = on_first;
        finder = a;
        first_target = static_cast<int>(ti);
        best_record = epoch_segments_ - 1;
        bound = std::min(cap, best);
      }
    };
    // Target-process gates ahead of any geometry: false when target ti
    // cannot count in a move of duration `dur`; else *from is the window's
    // first admissible offset into the move (<= 0: open at the start).
    const auto admit = [&](std::size_t ti, plane::Time dur,
                           plane::Time* from) {
      if (collect && sighted_at(ti) < move_start) return false;
      if (!windows) return true;
      if (van_[ti] <= move_start) return false;
      *from = app_[ti] - move_start;
      return !(*from > 0 && *from >= dur);
    };

    const plane::PlaneOp op = plane_programs_[ia]->next(rngs_[ia]);
    plane::Time move_time = 0;
    plane::Vec2 end = pos;
    bool is_line = false;
    plane::LineMove line{pos, pos};
    plane::SpiralMove spiral{pos, pconfig.spiral_pitch, 0};

    if (const auto* sw = std::get_if<plane::SpiralSweep>(&op)) {
      spiral.duration = sw->duration;
      const double theta_end = spiral_theta(a_coef, spiral.duration);
      for (std::size_t ti = 0; ti < nt; ++ti) {
        plane::Time from = 0;
        if (dynamic && !admit(ti, spiral.duration, &from)) continue;
        const auto hit =
            from > 0 ? plane::spiral_first_sighting_from_at(
                           spiral, plane_env_.targets[ti], eps, from,
                           plane::spiral_theta_for_arc(a_coef, from),
                           theta_end)
                     : plane::spiral_first_sighting_at(
                           spiral, plane_env_.targets[ti], eps, theta_end);
        if (hit) consider(*hit, ti);
      }
      move_time = spiral.duration;
      end = plane::spiral_point_at(spiral.center, a_coef, theta_end);
    } else {
      is_line = true;
      if (const auto* go = std::get_if<plane::GoToPoint>(&op)) {
        line.to = go->target;
      } else {
        line.to = plane::kPlaneOrigin;  // ReturnHome
      }
      const plane::Vec2 d = line.to - line.from;
      const double len = d.norm();
      // Degenerate move (no direction to prefilter along) or too few
      // targets for the prefilter kernel to pay for its call: the scalar
      // test covers every target directly.
      const bool prefilter = len != 0.0 && nt >= 4;
      std::size_t nc = 0;
      if (prefilter) {
        const double inv = 1.0 / len;
        nc = kernels_->line_candidates(ptgt_x_.data(), ptgt_y_.data(), nt,
                                       line.from.x, line.from.y, d.x * inv,
                                       d.y * inv, eps, cand_.data());
      }
      // Every target in order: one whose window opens mid-move is tested
      // from there whether or not the prefilter shortlisted it.
      std::size_t ci = 0;
      for (std::size_t ti = 0; ti < nt; ++ti) {
        const bool shortlisted = !prefilter || (ci < nc && cand_[ci] == ti);
        if (prefilter && shortlisted) ++ci;
        plane::Time from = 0;
        if (dynamic && !admit(ti, len, &from)) continue;
        std::optional<plane::Time> hit;
        if (from > 0) {
          hit = plane::line_first_sighting_from(line, plane_env_.targets[ti],
                                                eps, from);
        } else if (shortlisted) {
          hit = plane::line_first_sighting(line, plane_env_.targets[ti], eps);
        }
        if (hit) consider(*hit, ti);
      }
      move_time = len;
      end = line.to;
    }

    if (pelapsed_[ia] + move_time >= life) {
      // Fail-stop: truncate the trajectory at the remaining budget (the
      // rare path — build the Move variant and reuse the scalar clamp).
      const plane::Move move =
          is_line ? plane::Move{line} : plane::Move{spiral};
      const plane::Vec2 died_at =
          plane::move_position_at(move, life - pelapsed_[ia]);
      ppos_x_[ia] = died_at.x;
      ppos_y_[ia] = died_at.y;
      pelapsed_[ia] = life;
      return true;
    }
    pelapsed_[ia] += move_time;
    ppos_x_[ia] = end.x;
    ppos_y_[ia] = end.y;
    pclock_[ia] = start + pelapsed_[ia];
    return false;
  };

  const double floor = advance_epochs(pclock_, bound, step, &presult.segments,
                                      &presult.crashed);
  const auto inside = [bound](double s) { return s < bound; };

  if (collect) {
    settle_collect_all(floor, inside, pbest_t_, pzbest_t_, plane::kPlaneNever,
                       cap, presult.last_start, &presult);
    return finish();
  }
  settle_final_epoch(floor, inside, best, best_on_first_node ? finder : -1,
                     best_record, &presult.segments, &presult.crashed);
  if (best != plane::kPlaneNever) {
    presult.found = true;
    presult.time = best;
    presult.finder = finder;
    presult.first_target = first_target;
    presult.from_last_start =
        best > presult.last_start ? best - presult.last_start : 0;
  } else {
    presult.found = false;
    presult.time = cap;
    presult.from_last_start = cap;
  }
  return finish();
}

}  // namespace ants::sim::batch

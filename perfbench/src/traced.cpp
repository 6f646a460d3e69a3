// Traced mode: the same workload replayed through the public functions of
// each layer, with spans and counts taken around those calls from here.
// Nothing inside the library is instrumented.
#include "traced.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <variant>

#include "plane/segment.h"
#include "rng/splitmix64.h"
#include "scenario/environment.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "sim/batch/batch.h"
#include "sim/engine.h"
#include "sim/segment.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace ants;

constexpr double kMicroBudgetS = 0.02;   // per op-generation measurement
constexpr double kGeometryBudgetS = 0.05;
constexpr std::size_t kMaxSampledCells = 64;  // per scenario, geometry
constexpr std::size_t kMaxMovesPerAgent = 4096;
constexpr std::size_t kMaxGeometry = 200000;  // sampled segments or moves
constexpr std::size_t kPathChunk = 64;  // walker steps per PathSegment

// --- op-counting strategy wrappers ------------------------------------------
// Transparent decorators: every call forwards to the registry-built
// strategy, so results are unchanged; each op (or lock-step move) bumps a
// counter owned by the replay.

class CountingProgram final : public sim::AgentProgram {
 public:
  CountingProgram(std::unique_ptr<sim::AgentProgram> inner, std::int64_t* ops)
      : inner_(std::move(inner)), ops_(ops) {}
  sim::Op next(rng::Rng& rng) override {
    ++*ops_;
    return inner_->next(rng);
  }

 private:
  std::unique_ptr<sim::AgentProgram> inner_;
  std::int64_t* ops_;
};

class CountingStrategy final : public sim::Strategy {
 public:
  CountingStrategy(const sim::Strategy& inner, std::int64_t* ops)
      : inner_(inner), ops_(ops) {}
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override {
    return std::make_unique<CountingProgram>(inner_.make_program(ctx), ops_);
  }

 private:
  const sim::Strategy& inner_;
  std::int64_t* ops_;
};

class CountingStepProgram final : public sim::StepProgram {
 public:
  CountingStepProgram(std::unique_ptr<sim::StepProgram> inner,
                      std::int64_t* ops)
      : inner_(std::move(inner)), ops_(ops) {}
  grid::Point step(rng::Rng& rng, grid::Point current) override {
    ++*ops_;
    return inner_->step(rng, current);
  }

 private:
  std::unique_ptr<sim::StepProgram> inner_;
  std::int64_t* ops_;
};

class CountingStepStrategy final : public sim::StepStrategy {
 public:
  CountingStepStrategy(const sim::StepStrategy& inner, std::int64_t* ops)
      : inner_(inner), ops_(ops) {}
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<sim::StepProgram> make_program(
      sim::AgentContext ctx) const override {
    return std::make_unique<CountingStepProgram>(inner_.make_program(ctx),
                                                 ops_);
  }

 private:
  const sim::StepStrategy& inner_;
  std::int64_t* ops_;
};

class CountingPlaneProgram final : public plane::PlaneAgentProgram {
 public:
  CountingPlaneProgram(std::unique_ptr<plane::PlaneAgentProgram> inner,
                       std::int64_t* ops)
      : inner_(std::move(inner)), ops_(ops) {}
  plane::PlaneOp next(rng::Rng& rng) override {
    ++*ops_;
    return inner_->next(rng);
  }

 private:
  std::unique_ptr<plane::PlaneAgentProgram> inner_;
  std::int64_t* ops_;
};

class CountingPlaneStrategy final : public plane::PlaneStrategy {
 public:
  CountingPlaneStrategy(const plane::PlaneStrategy& inner, std::int64_t* ops)
      : inner_(inner), ops_(ops) {}
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<plane::PlaneAgentProgram> make_program(
      int agent_index, int k) const override {
    return std::make_unique<CountingPlaneProgram>(
        inner_.make_program(agent_index, k), ops_);
  }

 private:
  const plane::PlaneStrategy& inner_;
  std::int64_t* ops_;
};

/// One (strategy, k) pair of a scenario: the built strategy, its counting
/// wrapper, the batch runner, and what the replay counted for it.
struct StrategySlot {
  scenario::BuiltStrategy built;
  std::string name;
  int k = 1;
  std::size_t slice = 0;  ///< index of its scenario
  std::int64_t ops = 0;
  std::int64_t agent_trials = 0;  ///< trials x k
  std::unique_ptr<sim::Strategy> seg;
  std::unique_ptr<sim::StepStrategy> step;
  std::unique_ptr<plane::PlaneStrategy> pln;
  std::unique_ptr<sim::batch::BatchRunner> runner;
  /// On the built strategy itself: the untraced side of trace.overhead_frac.
  std::unique_ptr<sim::batch::BatchRunner> plain_runner;
  double ns_per_op = 0;  ///< measured after the replay
};

/// Per-scenario totals of the replay.
struct Slice {
  std::string name;
  bool lockstep = false;
  double run_ns = 0;
  double opgen_ns = 0;
  std::int64_t segments = 0;
  std::int64_t trials = 0;
  std::int64_t ops = 0;
};

/// The environment pieces run_sweep compiles once per spec.
struct CompiledEnv {
  std::vector<sim::Placement> placements;
  std::vector<std::function<double(rng::Rng&)>> plane_angles;
  std::vector<sim::TargetProcess> processes;  ///< placement x targets
  std::unique_ptr<sim::StartSchedule> schedule;
  std::unique_ptr<sim::CrashModel> crashes;
};

CompiledEnv compile_env(const scenario::ScenarioSpec& spec) {
  CompiledEnv env;
  const std::size_t np = spec.placements.size();
  const std::size_t nt = spec.targets.size();
  env.placements.resize(np);
  env.plane_angles.resize(np);
  env.processes.resize(np * nt);
  env.schedule = scenario::make_schedule(spec.schedule);
  env.crashes = scenario::make_crash(spec.crash);
  return env;
}

/// The cell's target process, compiled on first use exactly as run_sweep
/// compiles it.
const sim::TargetProcess& process_for(CompiledEnv& env,
                                      const scenario::ScenarioSpec& spec,
                                      const scenario::Cell& cell,
                                      bool is_plane) {
  sim::TargetProcess& p =
      env.processes[cell.placement_index * spec.targets.size() +
                    cell.targets_index];
  if (is_plane) {
    if (!env.plane_angles[cell.placement_index]) {
      env.plane_angles[cell.placement_index] =
          scenario::make_plane_angle(cell.placement_spec);
    }
    if (!p.plane) {
      p.plane = scenario::make_plane_targets(
                    cell.targets_spec, env.plane_angles[cell.placement_index])
                    .plane;
    }
  } else {
    if (!env.placements[cell.placement_index]) {
      env.placements[cell.placement_index] =
          scenario::make_placement(cell.placement_spec);
    }
    if (!p.grid) {
      p.grid = scenario::make_targets(cell.targets_spec,
                                      env.placements[cell.placement_index])
                   .grid;
    }
  }
  return p;
}

/// One trial's environment, realized in run_sweep's order from the trial
/// rng (which the target draw advances).
sim::TrialEnvironment realize_env(const scenario::ScenarioSpec& spec,
                                  const scenario::Cell& cell,
                                  const sim::TargetProcess& process,
                                  const CompiledEnv& env, bool is_plane,
                                  sim::Time cap, rng::Rng& trial_rng) {
  sim::TrialEnvironment out;
  if (is_plane) {
    process.plane(trial_rng, cell.distance, cap, &out);
  } else {
    process.grid(trial_rng, cell.distance, cap, &out);
  }
  if (spec.is_async()) {
    out = sim::draw_environment(static_cast<int>(cell.k), std::move(out),
                                *env.schedule, *env.crashes, trial_rng);
  }
  out.capture_dwell = spec.capture_dwell();
  out.collect_all = spec.collect_all();
  return out;
}

/// Per-trial outcomes of one cell, aggregated the way run_sweep finalizes a
/// cell, so the replay's rows can be compared with run_sweep's.
scenario::CellResult finalize(const scenario::ScenarioSpec& spec,
                              const scenario::Cell& cell,
                              const std::vector<sim::TrialResult>& trials,
                              const std::vector<double>& spawned) {
  constexpr std::size_t kSlots = scenario::CellResult::kTargetTimeSlots;
  const bool collect_all = spec.collect_all();
  std::vector<double> times, from_last, crashed, last_starts, found_count,
      fbv;
  std::int64_t found = 0;
  std::int64_t first_target_sum = 0;
  std::vector<double> slot_sum(kSlots, 0.0);
  std::vector<std::size_t> slot_n(kSlots, 0);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const sim::TrialResult& r = trials[t];
    times.push_back(r.time);
    from_last.push_back(r.from_last_start);
    crashed.push_back(static_cast<double>(r.crashed));
    last_starts.push_back(r.last_start);
    if (r.found) {
      ++found;
      first_target_sum += r.first_target;
    }
    double nf = r.found ? 1.0 : 0.0;
    if (collect_all) {
      nf = 0;
      for (const double tt : r.target_times) nf += tt >= 0 ? 1 : 0;
      for (std::size_t j = 0; j < std::min(kSlots, r.target_times.size());
           ++j) {
        if (r.target_times[j] >= 0) {
          slot_sum[j] += r.target_times[j];
          ++slot_n[j];
        }
      }
    }
    found_count.push_back(nf);
    fbv.push_back(spawned[t] > 0 ? nf / spawned[t] : 1.0);
  }
  scenario::CellResult res;
  res.cell = cell;
  res.stats = sim::make_run_stats(std::move(times), found, cell.distance,
                                  static_cast<int>(cell.k));
  if (spec.is_async()) {
    res.from_last_start = stats::Summary::from(from_last);
    res.mean_crashed = stats::Summary::from(crashed).mean;
    res.mean_last_start = stats::Summary::from(last_starts).mean;
  }
  res.mean_first_target =
      found > 0 ? static_cast<double>(first_target_sum) /
                      static_cast<double>(found)
                : -1.0;
  if (spec.is_dynamic()) {
    const auto mean_of = [](const std::vector<double>& v) {
      double sum = 0;
      for (const double x : v) sum += x;
      return v.empty() ? -1.0 : sum / static_cast<double>(v.size());
    };
    res.mean_targets_spawned = mean_of(spawned);
    res.mean_targets_found = mean_of(found_count);
    res.found_before_vanish = mean_of(fbv);
  }
  if (collect_all) {
    for (std::size_t j = 0; j < kSlots; ++j) {
      res.target_time_mean[j] =
          slot_n[j] > 0 ? slot_sum[j] / static_cast<double>(slot_n[j]) : -1.0;
    }
  }
  return res;
}

/// Every result column except `cached`, which differs by design between a
/// computed and a cache-served cell.
std::string full_row(const scenario::ScenarioSpec& spec,
                     const scenario::CellResult& r) {
  std::string out;
  for (const std::string& c : scenario::all_columns()) {
    if (c == "cached") continue;
    out += scenario::column_value(c, spec, r) + "|";
  }
  return out;
}

plane::Move realize_plane(const plane::PlaneOp& op, plane::Vec2 current,
                          double pitch) {
  if (const auto* go = std::get_if<plane::GoToPoint>(&op)) {
    return plane::LineMove{current, go->target};
  }
  if (const auto* sp = std::get_if<plane::SpiralSweep>(&op)) {
    return plane::SpiralMove{current, pitch, sp->duration};
  }
  return plane::LineMove{current, plane::Vec2{0, 0}};
}

/// Geometry inputs gathered from the workload's own trials: realized grid
/// segments (or chunks of walker paths) and plane moves, each with the
/// targets of its trial.
struct GeometrySample {
  std::vector<sim::Segment> segments;
  std::vector<std::vector<grid::Point>> seg_targets;
  std::vector<plane::Move> moves;
  std::vector<std::vector<plane::Vec2>> move_targets;
};

void sample_geometry(const scenario::BuiltStrategy& built, int k,
                     const sim::TrialEnvironment& env, double horizon,
                     const rng::Rng& trial_rng, GeometrySample* out) {
  const sim::EngineConfig config;
  for (int a = 0; a < k; ++a) {
    if (out->segments.size() + out->moves.size() >= kMaxGeometry) return;
    rng::Rng rng = trial_rng.child(static_cast<std::uint64_t>(a));
    if (built.segment && !env.targets.empty()) {
      auto program = built.segment->make_program(sim::AgentContext{a, k});
      grid::Point pos{0, 0};
      double clock = 0;
      for (std::size_t n = 0; n < kMaxMovesPerAgent && clock <= horizon;
           ++n) {
        sim::Segment seg = sim::realize(program->next(rng), pos, {0, 0});
        clock += static_cast<double>(sim::duration(seg));
        pos = sim::end_position(seg);
        out->segments.push_back(std::move(seg));
        out->seg_targets.push_back(env.targets);
      }
    } else if (built.step && !env.targets.empty()) {
      auto program = built.step->make_program(sim::AgentContext{a, k});
      grid::Point pos{0, 0};
      const auto steps = static_cast<std::size_t>(
          std::min(horizon, static_cast<double>(kMaxMovesPerAgent)));
      for (std::size_t done = 0; done < steps; done += kPathChunk) {
        sim::PathSegment path;
        path.start = pos;
        for (std::size_t j = 0; j < kPathChunk; ++j) {
          pos = program->step(rng, pos);
          path.steps.push_back(pos);
        }
        out->segments.emplace_back(std::move(path));
        out->seg_targets.push_back(env.targets);
      }
    } else if (built.plane && !env.plane_targets.empty()) {
      auto program = built.plane->make_program(a, k);
      plane::Vec2 pos{0, 0};
      double clock = 0;
      for (std::size_t n = 0; n < kMaxMovesPerAgent && clock <= horizon;
           ++n) {
        const plane::Move move =
            realize_plane(program->next(rng), pos, config.spiral_pitch);
        clock += plane::move_duration(move);
        pos = plane::move_end(move);
        out->moves.push_back(move);
        out->move_targets.push_back(env.plane_targets);
      }
    }
  }
}

/// ns per call of `body(i)` over i in [0, n), repeated to the budget.
template <typename Body>
double ns_per_call(std::size_t n, Body&& body, std::int64_t* calls_out) {
  if (n == 0) return 0;
  std::int64_t calls = 0;
  const double t0 = now_s();
  double dt = 0;
  do {
    for (std::size_t i = 0; i < n; ++i) calls += body(i);
    dt = now_s() - t0;
  } while (dt < kGeometryBudgetS);
  if (calls_out != nullptr) *calls_out = calls;
  return dt * 1e9 / static_cast<double>(std::max<std::int64_t>(calls, 1));
}

/// ns per op of one (strategy, k): programs made and advanced the way a
/// trial does, `per_agent` ops each.
double measure_opgen(const StrategySlot& slot, std::int64_t per_agent) {
  const int k = slot.k;
  std::int64_t ops = 0;
  std::uint64_t sink = 0;
  const double t0 = now_s();
  double dt = 0;
  for (std::uint64_t rep = 0; dt < kMicroBudgetS; ++rep) {
    for (int a = 0; a < k; ++a) {
      rng::Rng rng(rng::mix_seed(rep, static_cast<std::uint64_t>(a)));
      if (slot.built.segment) {
        auto p = slot.built.segment->make_program(sim::AgentContext{a, k});
        for (std::int64_t j = 0; j < per_agent; ++j) {
          sink += p->next(rng).index();
        }
      } else if (slot.built.step) {
        auto p = slot.built.step->make_program(sim::AgentContext{a, k});
        grid::Point pos{0, 0};
        for (std::int64_t j = 0; j < per_agent; ++j) pos = p->step(rng, pos);
        sink += static_cast<std::uint64_t>(pos.x);
      } else {
        auto p = slot.built.plane->make_program(a, k);
        for (std::int64_t j = 0; j < per_agent; ++j) {
          sink += p->next(rng).index();
        }
      }
      ops += per_agent;
    }
    dt = now_s() - t0;
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return dt * 1e9 / static_cast<double>(std::max<std::int64_t>(ops, 1));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace

std::string run_traced(const Workload& w, const std::string& work_dir,
                       const std::string& trace_path) {
  namespace fs = std::filesystem;
  Spans spans;
  JsonObject metrics;
  JsonObject breakdown;

  // --- scenario layer: parse, plan, build ----------------------------------
  std::vector<scenario::SweepPlan> plans;
  std::vector<double> parse_s, plan_s, build_s;
  std::size_t builds = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const Spans::Scope setup(spans, "scenario.setup");
    const int parse_id = spans.begin("scenario.parse");
    const auto specs = scenario::parse_spec_text(w.spec_text);
    spans.end(parse_id);
    parse_s.push_back(static_cast<double>(spans.duration_ns(parse_id)) / 1e9);
    double plan_total = 0, build_total = 0;
    plans.clear();
    builds = 0;
    for (const auto& spec : specs) {
      const int plan_id = spans.begin("scenario.plan");
      plans.push_back(scenario::make_plan(spec));
      spans.end(plan_id);
      plan_total += static_cast<double>(spans.duration_ns(plan_id)) / 1e9;
      std::set<std::pair<std::size_t, std::int64_t>> seen;
      for (const auto& cell : plans.back().cells) {
        if (!seen.insert({cell.strategy_index, cell.k}).second) continue;
        const int build_id = spans.begin("scenario.build");
        const auto built = scenario::Registry::instance().make(
            cell.strategy_spec,
            scenario::BuildContext{static_cast<int>(cell.k)});
        spans.end(build_id);
        build_total += static_cast<double>(spans.duration_ns(build_id)) / 1e9;
        ++builds;
      }
    }
    plan_s.push_back(plan_total);
    build_s.push_back(build_total);
  }
  std::size_t cells = 0, items = 0;
  for (const auto& plan : plans) {
    cells += plan.cells.size();
    const auto trials = static_cast<std::size_t>(plan.spec.trials);
    items += plan.cells.size() *
             ((trials + sim::batch::kTrialBlock - 1) / sim::batch::kTrialBlock);
  }
  metrics.num("scenario.parse_ms", median(parse_s) * 1e3)
      .num("scenario.plan_ms", median(plan_s) * 1e3)
      .num("scenario.build_ms",
           median(build_s) * 1e3 / static_cast<double>(std::max<std::size_t>(
                                       builds, 1)))
      .num("scenario.items", static_cast<double>(items));

  // --- untraced reference run, then the cache layer ------------------------
  Results reference;
  double ref_wall = 0;
  {
    const Spans::Scope s(spans, "sweep.reference");
    const double t0 = now_s();
    reference = sweep_all(plans);
    ref_wall = now_s() - t0;
  }
  // The cache layer's per-cell cost does not depend on what the cells
  // compute, and on compute-heavy workloads it is far below the run-to-run
  // noise of a full sweep. So it is measured on a probe of as many trivial
  // cells as the workload has (one spiral trial each): stores as a cold
  // cached sweep against an uncached one, loads as a warm sweep against
  // planning alone.
  scenario::ScenarioSpec probe;
  probe.name = "cache-probe";
  probe.strategies = {"spiral"};
  probe.ks = {1};
  probe.distances.clear();
  for (std::size_t d = 1; d <= cells; ++d) {
    probe.distances.push_back(static_cast<std::int64_t>(d));
  }
  probe.trials = 1;
  const std::string probe_dir = work_dir + "/trace_probe";
  const std::string filled = probe_dir + "/filled";
  reset_dir(probe_dir);
  std::vector<double> probe_plan, probe_plain, probe_cold, probe_warm;
  std::uint64_t cache_files = 0, cache_bytes = 0;
  {
    const Spans::Scope s(spans, "cache.probe");
    probe_plan = batched_samples([&] { scenario::make_plan(probe); }, 3, 0.1);
    probe_plain = batched_samples(
        [&] { scenario::run_sweep(probe, sweep_options()); }, 3, 0.1);
    // Cold samples: each repetition stores into a fresh directory, and the
    // directories of a sample are removed before the next one is timed.
    const std::string cold = probe_dir + "/cold";
    for (int reps = 1; probe_cold.size() < 3;) {
      reset_dir(cold);
      const double t0 = now_s();
      for (int r = 0; r < reps; ++r) {
        scenario::run_sweep(probe,
                            sweep_options(cold + "/" + std::to_string(r)));
      }
      const double dt = now_s() - t0;
      if (probe_cold.empty() && dt < 0.1 && reps < (1 << 20)) {
        reps *= 2;
        continue;
      }
      probe_cold.push_back(dt / reps);
    }
    fs::remove_all(cold);
    scenario::run_sweep(probe, sweep_options(filled));
    dir_usage(filled, &cache_files, &cache_bytes);
    probe_warm = batched_samples(
        [&] { scenario::run_sweep(probe, sweep_options(filled)); }, 3, 0.1);
  }
  fs::remove_all(probe_dir);
  const double per_cell_us = 1e6 / static_cast<double>(cells);
  metrics
      .num("cache.store_us_per_cell",
           (median(probe_cold) - median(probe_plain)) * kThreads * per_cell_us)
      .num("cache.load_us_per_cell",
           (median(probe_warm) - median(probe_plan)) * per_cell_us)
      .num("cache.files", static_cast<double>(cache_files))
      .num("cache.bytes_per_cell",
           static_cast<double>(cache_bytes) / static_cast<double>(cells));

  // --- artifact layer -------------------------------------------------------
  const std::string artifacts = work_dir + "/trace_artifacts";
  reset_dir(artifacts);
  const auto paths = artifact_paths(plans, artifacts);
  std::vector<double> write_samples, merge_samples;
  {
    const Spans::Scope s(spans, "artifact.write");
    write_samples = batched_samples(
        [&] { write_artifacts(plans, reference, paths); }, 3, 0.05);
  }
  std::uint64_t artifact_files = 0, artifact_bytes = 0;
  dir_usage(artifacts, &artifact_files, &artifact_bytes);
  {
    const Spans::Scope s(spans, "artifact.merge");
    merge_samples =
        batched_samples([&] { merge_all(plans, paths); }, 3, 0.05);
  }
  fs::remove_all(artifacts);
  metrics.num("artifact.write_us_per_cell", median(write_samples) * per_cell_us)
      .num("artifact.merge_us_per_cell", median(merge_samples) * per_cell_us)
      .num("artifact.bytes_per_cell",
           static_cast<double>(artifact_bytes) / static_cast<double>(cells));

  // --- replay: every trial through BatchRunner::run_one ---------------------
  std::vector<Slice> slices;
  std::vector<std::unique_ptr<StrategySlot>> slots;
  std::vector<double> trial_ms;
  std::map<std::string, std::pair<double, std::int64_t>> realize_by_process;
  double spawned_total = 0;
  std::uint64_t fallbacks = 0;
  std::size_t mismatched_cells = 0;
  GeometrySample geometry;
  double replay_s = 0;  // the traced trial loops, single-threaded
  double untraced_s = 0;  // the same trial loops without tracing
  double in_trial_ns = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const Spans::Scope scope(spans, "replay.scenario");
    const scenario::ScenarioSpec& spec = plans[p].spec;
    CompiledEnv env = compile_env(spec);
    sim::EngineConfig config;
    config.time_cap = spec.effective_time_cap();
    Slice slice;
    slice.name = spec.name;
    std::map<std::pair<std::size_t, std::int64_t>, StrategySlot*> by_sk;
    const std::size_t stride = std::max<std::size_t>(
        1, plans[p].cells.size() / kMaxSampledCells);
    for (std::size_t ci = 0; ci < plans[p].cells.size(); ++ci) {
      const scenario::Cell& cell = plans[p].cells[ci];
      const Spans::Scope cell_scope(spans, "replay.cell");
      StrategySlot*& slot = by_sk[{cell.strategy_index, cell.k}];
      if (slot == nullptr) {
        slots.push_back(std::make_unique<StrategySlot>());
        slot = slots.back().get();
        slot->built = scenario::Registry::instance().make(
            cell.strategy_spec,
            scenario::BuildContext{static_cast<int>(cell.k)});
        slot->name = slot->built.display_name();
        slot->k = static_cast<int>(cell.k);
        slot->slice = p;
        sim::TrialStrategy ts;
        if (slot->built.segment) {
          slot->seg = std::make_unique<CountingStrategy>(*slot->built.segment,
                                                         &slot->ops);
          ts.segment = slot->seg.get();
        } else if (slot->built.step) {
          slot->step = std::make_unique<CountingStepStrategy>(
              *slot->built.step, &slot->ops);
          ts.step = slot->step.get();
        } else {
          slot->pln = std::make_unique<CountingPlaneStrategy>(
              *slot->built.plane, &slot->ops);
          ts.plane = slot->pln.get();
        }
        slot->runner = std::make_unique<sim::batch::BatchRunner>(
            ts, slot->k, config);
        slot->plain_runner = std::make_unique<sim::batch::BatchRunner>(
            sim::TrialStrategy{slot->built.segment.get(),
                               slot->built.step.get(),
                               slot->built.plane.get()},
            slot->k, config);
      }
      const bool is_plane = slot->built.is_plane();
      slice.lockstep = slice.lockstep || slot->built.is_step();
      const sim::TargetProcess& process =
          process_for(env, spec, cell, is_plane);
      const auto n_trials = static_cast<std::size_t>(spec.trials);
      std::vector<sim::TrialResult> results(n_trials);
      std::vector<double> spawned(n_trials);
      const std::int64_t ops_before = slot->ops;
      // The cell's trials untraced, then traced: back to back, so both see
      // the host at the same speed.
      {
        const Spans::Scope untraced_scope(spans, "replay.untraced");
        double sink = 0;
        const double t0 = now_s();
        for (std::size_t t = 0; t < n_trials; ++t) {
          rng::Rng trial_rng(rng::mix_seed(cell.seed, t));
          const sim::TrialEnvironment trial_env =
              realize_env(spec, cell, process, env, is_plane,
                          config.time_cap, trial_rng);
          sink += slot->plain_runner->run_one(trial_env, trial_rng).time;
        }
        untraced_s += now_s() - t0;
        volatile double keep = sink;
        (void)keep;
        slot->plain_runner->take_scalar_fallbacks();
      }
      sim::TrialEnvironment first_env;
      const double loop_t0 = now_s();
      for (std::size_t t = 0; t < n_trials; ++t) {
        rng::Rng trial_rng(rng::mix_seed(cell.seed, t));
        const int realize_id = spans.begin("targets.realize");
        sim::TrialEnvironment trial_env = realize_env(
            spec, cell, process, env, is_plane, config.time_cap, trial_rng);
        spans.end(realize_id);
        const int run_id = spans.begin("sim.run_one");
        results[t] = slot->runner->run_one(trial_env, trial_rng);
        spans.end(run_id);
        const auto realize_ns =
            static_cast<double>(spans.duration_ns(realize_id));
        const auto run_ns = static_cast<double>(spans.duration_ns(run_id));
        in_trial_ns += realize_ns + run_ns;
        slice.run_ns += run_ns;
        slice.segments += results[t].segments;
        trial_ms.push_back(run_ns / 1e6);
        auto& proc = realize_by_process[cell.targets_spec +
                                        (is_plane ? " (plane)" : " (grid)")];
        proc.first += realize_ns;
        ++proc.second;
        spawned[t] = static_cast<double>(is_plane
                                             ? trial_env.plane_targets.size()
                                             : trial_env.targets.size());
        spawned_total += spawned[t];
        if (t == 0) first_env = std::move(trial_env);
      }
      replay_s += now_s() - loop_t0;
      if (ci % stride == 0) {
        // Geometry inputs from the cell's first trial, replayed up to the
        // time that trial ended.
        const double horizon =
            std::min(results[0].time, static_cast<double>(config.time_cap));
        sample_geometry(slot->built, slot->k, first_env, horizon,
                        rng::Rng(rng::mix_seed(cell.seed, 0)), &geometry);
      }
      fallbacks += slot->runner->take_scalar_fallbacks();
      slot->agent_trials += static_cast<std::int64_t>(n_trials) * cell.k;
      slice.ops += slot->ops - ops_before;
      slice.trials += static_cast<std::int64_t>(n_trials);
      const scenario::CellResult replayed =
          finalize(spec, cell, results, spawned);
      const scenario::CellResult& ref = reference[p][ci];
      if (replayed.stats.times != ref.stats.times ||
          full_row(spec, replayed) != full_row(spec, ref)) {
        ++mismatched_cells;
      }
    }
    slices.push_back(slice);
  }

  // --- op generation, per (strategy, k) ------------------------------------
  {
    const Spans::Scope s(spans, "core.opgen");
    for (auto& slot : slots) {
      const std::int64_t per_agent = std::max<std::int64_t>(
          1, (slot->ops + slot->agent_trials - 1) /
                 std::max<std::int64_t>(slot->agent_trials, 1));
      slot->ns_per_op = measure_opgen(*slot, per_agent);
    }
  }
  std::map<std::string, std::pair<double, std::int64_t>> opgen_by_strategy;
  double opgen_ns = 0;
  std::int64_t total_ops = 0;
  for (const auto& slot : slots) {
    slices[slot->slice].opgen_ns +=
        static_cast<double>(slot->ops) * slot->ns_per_op;
    auto& e = opgen_by_strategy[slot->name];
    e.first += static_cast<double>(slot->ops) * slot->ns_per_op;
    e.second += slot->ops;
    opgen_ns += static_cast<double>(slot->ops) * slot->ns_per_op;
    total_ops += slot->ops;
  }
  for (const auto& [name, e] : opgen_by_strategy) {
    breakdown.num("core.ns_per_op." + name,
                  e.first / static_cast<double>(std::max<std::int64_t>(
                                e.second, 1)));
  }

  // --- geometry ------------------------------------------------------------
  std::int64_t hit_calls = 0, sight_calls = 0;
  double ns_hit = 0, ns_sight = 0;
  {
    const Spans::Scope s(spans, "grid.hit_offset");
    std::uint64_t sink = 0;
    ns_hit = ns_per_call(
        geometry.segments.size(),
        [&](std::size_t i) {
          for (const grid::Point& t : geometry.seg_targets[i]) {
            const auto hit = sim::hit_offset(geometry.segments[i], t);
            sink += hit ? static_cast<std::uint64_t>(*hit) : 1;
          }
          return static_cast<std::int64_t>(geometry.seg_targets[i].size());
        },
        &hit_calls);
    volatile std::uint64_t keep = sink;
    (void)keep;
  }
  {
    const Spans::Scope s(spans, "plane.first_sighting");
    const double eps = sim::EngineConfig{}.sight_radius;
    double sink = 0;
    ns_sight = ns_per_call(
        geometry.moves.size(),
        [&](std::size_t i) {
          for (const plane::Vec2& t : geometry.move_targets[i]) {
            const auto hit = plane::first_sighting(geometry.moves[i], t, eps);
            sink += hit ? *hit : 1.0;
          }
          return static_cast<std::int64_t>(geometry.move_targets[i].size());
        },
        &sight_calls);
    volatile double keep = sink;
    (void)keep;
  }

  // --- sim and target-process metrics --------------------------------------
  double run_ns = 0;
  std::int64_t segments = 0, trials = 0;
  for (const Slice& s : slices) {
    run_ns += s.run_ns;
    segments += s.segments;
    trials += s.trials;
    const double segs =
        static_cast<double>(std::max<std::int64_t>(s.segments, 1));
    breakdown
        .num((s.lockstep ? "sim.ns_per_lockstep." : "sim.ns_per_segment.") +
                 s.name,
             s.run_ns / segs)
        .num("sim.self_ns_per_segment." + s.name,
             (s.run_ns - s.opgen_ns) / segs)
        .num("sim.segments_per_trial." + s.name,
             static_cast<double>(s.segments) / static_cast<double>(s.trials))
        .num("core.ops_per_trial." + s.name,
             static_cast<double>(s.ops) / static_cast<double>(s.trials));
  }
  double realize_ns = 0;
  std::int64_t realizations = 0;
  for (const auto& [name, e] : realize_by_process) {
    realize_ns += e.first;
    realizations += e.second;
    breakdown.num("targets.us_per_realization." + name,
                  e.first / 1e3 / static_cast<double>(e.second));
  }
  const double segs = static_cast<double>(std::max<std::int64_t>(segments, 1));
  const double n_trials = static_cast<double>(trials);
  metrics.num("scenario.sched_overhead_frac",
              1.0 - in_trial_ns / 1e9 / (ref_wall * kThreads))
      .num("core.ns_per_op",
           opgen_ns / static_cast<double>(std::max<std::int64_t>(total_ops, 1)))
      .num("core.ops_per_trial", static_cast<double>(total_ops) / n_trials)
      .num("sim.ns_per_segment", run_ns / segs)
      .num("sim.self_ns_per_segment", (run_ns - opgen_ns) / segs)
      .num("sim.segments_per_trial", static_cast<double>(segments) / n_trials)
      .num("sim.trial_ms.p50", percentile(trial_ms, 0.50))
      .num("sim.trial_ms.p99", percentile(trial_ms, 0.99))
      .num("sim.trial_ms.samples", static_cast<double>(trial_ms.size()))
      .num("sim.scalar_fallback", static_cast<double>(fallbacks))
      .num("grid.ns_per_hit", ns_hit)
      .num("plane.ns_per_sighting", ns_sight)
      .num("targets.us_per_realization",
           realize_ns / 1e3 / static_cast<double>(realizations))
      .num("targets.spawned_per_trial", spawned_total / n_trials)
      .num("trace.overhead_frac", replay_s / untraced_s - 1.0);
  breakdown.num("grid.hit_calls", static_cast<double>(hit_calls))
      .num("plane.sighting_calls", static_cast<double>(sight_calls))
      .num("spans", static_cast<double>(spans.size()));

  spans.write_chrome_trace(trace_path);

  JsonObject report;
  report.str("mode", "trace")
      .str("workload", w.name)
      .num("cells", static_cast<double>(cells))
      .num("replay_mismatched_cells", static_cast<double>(mismatched_cells))
      .str("trace_file", trace_path)
      .raw("metrics", metrics.render())
      .raw("breakdown", breakdown.render())
      .raw("provenance", provenance_json(work_dir));
  return report.render();
}

}  // namespace perfbench

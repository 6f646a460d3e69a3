// Microbenchmarks for the simulation engine: cost of a full collaborative
// trial at experiment scale. The headline number — a D=256, k=64 known-k
// trial in microseconds — is what makes the E1-E8 sweeps laptop-scale
// (stepping the same trial would cost ~D^2/k * k = 65536+ node visits).
//
// The BM_Unified* group covers the environment-aware executor
// (sim::run_trial): its sync path must stay at parity with the historical
// run_search numbers (it IS the same sweep), and the environment draw,
// async, multi-target, and lock-step costs get their own counters.
// bench/baseline_engine.json pins a reference run of this harness;
// tools/bench_compare.py diffs a fresh run against it (the CI
// benchmark-smoke job does both).
#include <benchmark/benchmark.h>

#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "plane/strategies.h"
#include "scenario/sweep.h"
#include "sim/batch/batch.h"
#include "sim/engine.h"
#include "sim/placement.h"
#include "sim/trial.h"
#include "telemetry/run_telemetry.h"

namespace {

void BM_TrialKnownK(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_search(strategy, k, {d, 0}, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialKnownK)
    ->Args({1, 64})
    ->Args({16, 64})
    ->Args({64, 256})
    ->Args({256, 1024});

void BM_TrialUniform(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::UniformStrategy strategy(0.5);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_search(strategy, k, {64, 0}, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialUniform)->Arg(1)->Arg(16)->Arg(256);

void BM_TrialHarmonic(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::HarmonicStrategy strategy(0.5);
  std::uint64_t seed = 0;
  ants::sim::EngineConfig config;
  config.time_cap = ants::sim::Time{1} << 32;  // censor heavy-tail stragglers
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_search(strategy, k, {64, 0}, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialHarmonic)->Arg(16)->Arg(256);

void BM_TrialSectorSweep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::SectorSweepStrategy strategy;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_search(strategy, k, {128, 0}, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_TrialSectorSweep)->Arg(4)->Arg(64);

// --- the unified environment-aware executor --------------------------------

// Environment draw alone: two child streams + k delays + k lifetimes.
void BM_UnifiedDrawEnvironment(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{64, 0}}, schedule,
                                                 crashes, trial);
    benchmark::DoNotOptimize(env.starts.data());
  }
}
BENCHMARK(BM_UnifiedDrawEnvironment)->Arg(16)->Arg(256);

// Sync single-target trial through run_trial: must track BM_TrialKnownK
// (the wrapper indirection is the only difference).
void BM_UnifiedTrialSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({d, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialSync)->Args({16, 64})->Args({64, 256});

// The uniform algorithm (eps = 0.3) at the paper's large-k scale (E3,
// D = 32): hundreds of thousands of segments per trial, so the cost of
// deciding which agent moves next shows up against the cost of moving it.
void BM_UnifiedTrialUniform(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::UniformStrategy strategy(0.3);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(
        strategy, k, ants::sim::single_target_environment({32, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialUniform)->Arg(256)->Arg(1024);

// Full async/crash trial: environment draw + segment backend with
// starts/lifetimes live.
void BM_UnifiedTrialAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{d, 0}}, schedule,
                                                 crashes, trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialAsync)->Args({16, 64})->Args({64, 256});

// Multi-target race: per-segment cost scales with the target count.
void BM_UnifiedTrialMultiTarget(benchmark::State& state) {
  const auto n_targets = state.range(0);
  const ants::core::KnownKStrategy strategy(16);
  ants::sim::TrialEnvironment env;
  for (std::int64_t i = 0; i < n_targets; ++i) {
    env.targets.push_back({64 - 2 * i, 2 * i});
  }
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(strategy, 16, env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialMultiTarget)->Arg(2)->Arg(8);

// Lock-step backend under an environment (the step-async capability).
void BM_UnifiedTrialStepAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::FixedLifetime crashes(2000);
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{4, 0}}, schedule,
                                                 crashes, trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStepAsync)->Arg(4)->Arg(16);

// Plane backend under the base model through run_trial: must stay at
// parity with the historical run_plane_search cost (it IS the same
// min-clock sweep; the dispatch + environment adaptation is the only
// difference).
void BM_UnifiedTrialPlaneSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialEnvironment env;
  env.plane_targets = {{static_cast<double>(d), 0.0}};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialPlaneSync)->Args({4, 16})->Args({16, 64});

// Plane backend under the full environment: schedule/crash draws + the
// continuous sweep with starts/lifetimes live and a near/far target pair.
void BM_UnifiedTrialPlaneAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    env.plane_targets = {{static_cast<double>(d) / 4.0, 0.0},
                         {static_cast<double>(d), 0.0}};
    env = ants::sim::draw_environment(k, std::move(env), schedule, crashes,
                                      trial);
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialPlaneAsync)->Args({4, 16})->Args({16, 64});

// --- the batch executor -----------------------------------------------------

// BM_Batched* mirror the BM_Unified* bodies exactly — same strategies, same
// per-iteration environment draws, same seeds — with the run_trial call
// replaced by a persistent BatchRunner (as the sweep and runner drivers use
// it). The per-pair speedup is the tentpole's scoreboard:
// tools/bench_compare.py --batched-speedup gates the median ratio in CI.

void BM_BatchedTrialSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r =
        runner.run_one(ants::sim::single_target_environment({d, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialSync)->Args({16, 64})->Args({64, 256});

void BM_BatchedTrialUniform(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::core::UniformStrategy strategy(0.3);
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r =
        runner.run_one(ants::sim::single_target_environment({32, 0}), trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialUniform)->Arg(256)->Arg(1024);

void BM_BatchedTrialAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::core::KnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(4);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{d, 0}}, schedule,
                                                 crashes, trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialAsync)->Args({16, 64})->Args({64, 256});

void BM_BatchedTrialMultiTarget(benchmark::State& state) {
  const auto n_targets = state.range(0);
  const ants::core::KnownKStrategy strategy(16);
  ants::sim::TrialEnvironment env;
  for (std::int64_t i = 0; i < n_targets; ++i) {
    env.targets.push_back({64 - 2 * i, 2 * i});
  }
  ants::sim::TrialStrategy ts;
  ts.segment = &strategy;
  ants::sim::batch::BatchRunner runner(ts, 16, {});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialMultiTarget)->Arg(2)->Arg(8);

void BM_BatchedTrialStepAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::FixedLifetime crashes(2000);
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto env = ants::sim::draw_environment(k, {{4, 0}}, schedule,
                                                 crashes, trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStepAsync)->Arg(4)->Arg(16);

void BM_BatchedTrialPlaneSync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialEnvironment env;
  env.plane_targets = {{static_cast<double>(d), 0.0}};
  ants::sim::TrialStrategy ts;
  ts.plane = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialPlaneSync)->Args({4, 16})->Args({16, 64});

void BM_BatchedTrialPlaneAsync(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const std::int64_t d = state.range(1);
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::StaggeredStart schedule(2);
  const ants::sim::DoaCrash crashes(0.25);
  ants::sim::EngineConfig config;
  config.time_cap = 1'000'000;
  ants::sim::TrialStrategy ts;
  ts.plane = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    env.plane_targets = {{static_cast<double>(d) / 4.0, 0.0},
                         {static_cast<double>(d), 0.0}};
    env = ants::sim::draw_environment(k, std::move(env), schedule, crashes,
                                      trial);
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialPlaneAsync)->Args({4, 16})->Args({16, 64});

// --- dynamic target processes ------------------------------------------------

// Stochastic-target twins: Poisson arrival/lifetime windows with dwell
// capture, and a drifting target under collect-all. These are the
// environments the batch executor used to delegate wholesale to the scalar
// path; the pairs pin the native SoA dynamic loops' speedup (the per-tick
// liveness/drift hoisting is the win — the scalar loop recomputes both per
// agent per target per tick).

// Poisson windows + dwell on the lock-step backend.
void BM_UnifiedTrialStochasticDwell(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::poisson_targets(
      0.02, 400.0, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.capture_dwell = 2;
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStochasticDwell)->Arg(4)->Arg(16);

void BM_BatchedTrialStochasticDwell(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::poisson_targets(
      0.02, 400.0, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.capture_dwell = 2;
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStochasticDwell)->Arg(4)->Arg(16);

// Drifting target + collect-all on the lock-step backend.
void BM_UnifiedTrialStochasticCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::drifting_target(
      0.5, 0.125, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialStochasticCollect)->Arg(4)->Arg(16);

void BM_BatchedTrialStochasticCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::baselines::RandomWalkStrategy strategy;
  const ants::sim::TargetProcess process = ants::sim::drifting_target(
      0.5, 0.125, ants::sim::uniform_ring_placement());
  ants::sim::EngineConfig config;
  config.time_cap = 2000;
  ants::sim::TrialStrategy ts;
  ts.step = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.grid(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialStochasticCollect)->Arg(4)->Arg(16);

// Poisson sight discs + collect-all on the plane backend: the campaign's
// plane-dynamic cells (D = 8, rate 0.01, mean life 1000, cap 4000), which
// the batch executor used to hand to the scalar heap loop.
void BM_UnifiedTrialPlaneCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::TargetProcess process = ants::sim::poisson_plane_targets(
      0.01, 1000.0, [](ants::rng::Rng& rng) { return rng.angle(); });
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.plane(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = ants::sim::run_trial(strategy, k, env, trial, config);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_UnifiedTrialPlaneCollect)->Arg(4)->Arg(16);

void BM_BatchedTrialPlaneCollect(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const ants::plane::PlaneKnownKStrategy strategy(k);
  const ants::sim::TargetProcess process = ants::sim::poisson_plane_targets(
      0.01, 1000.0, [](ants::rng::Rng& rng) { return rng.angle(); });
  ants::sim::EngineConfig config;
  config.time_cap = 4000;
  ants::sim::TrialStrategy ts;
  ts.plane = &strategy;
  ants::sim::batch::BatchRunner runner(ts, k, config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ants::rng::Rng trial(++seed);
    ants::sim::TrialEnvironment env;
    {
      ants::rng::Rng realize(trial.seed());
      process.plane(realize, 8, config.time_cap, &env);
    }
    env.collect_all = true;
    const auto r = runner.run_one(env, trial);
    benchmark::DoNotOptimize(r.time);
  }
}
BENCHMARK(BM_BatchedTrialPlaneCollect)->Arg(4)->Arg(16);

// --- sweep executor telemetry overhead --------------------------------------

// The telemetry hooks' zero-cost-when-disabled contract (telemetry/metrics.h)
// is pinned by this pair: Off runs the sweep executor with the null
// telemetry pointer every hot-path hook guards on, On runs the identical
// sweep with a live collector (metrics only — no event log or trace file,
// so the pair isolates the hook cost from I/O). Off regressing past the
// gate means disabled telemetry stopped being free; the two drifting far
// apart means a hook landed somewhere hotter than once per trial.
ants::scenario::ScenarioSpec sweep_bench_spec() {
  ants::scenario::ScenarioSpec spec;
  spec.name = "bench";
  spec.strategies = {"known-k"};
  spec.ks = {4};
  spec.distances = {16};
  spec.trials = 64;
  spec.seed = 7;
  return spec;
}

void BM_SweepTelemetryOff(benchmark::State& state) {
  const ants::scenario::ScenarioSpec spec = sweep_bench_spec();
  ants::scenario::SweepOptions opt;
  opt.threads = 1;  // inline execution: no thread-spawn noise
  for (auto _ : state) {
    const auto results = ants::scenario::run_sweep(spec, opt);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_SweepTelemetryOff);

void BM_SweepTelemetryOn(benchmark::State& state) {
  const ants::scenario::ScenarioSpec spec = sweep_bench_spec();
  for (auto _ : state) {
    ants::telemetry::RunTelemetry tel;
    ants::scenario::SweepOptions opt;
    opt.threads = 1;
    opt.telemetry = &tel;
    const auto results = ants::scenario::run_sweep(spec, opt);
    tel.finish();
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_SweepTelemetryOn);

}  // namespace

BENCHMARK_MAIN();

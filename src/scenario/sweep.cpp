#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "rng/splitmix64.h"
#include "scenario/artifact.h"
#include "scenario/cache_pack.h"
#include "scenario/environment.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/text.h"
#include "sim/batch/batch.h"
#include "sim/trial.h"
#include "telemetry/run_telemetry.h"
#include "util/format.h"
#include "util/thread_pool.h"

namespace ants::scenario {

namespace {

/// Executes `cells` (any subset of a plan, in any order) and returns the
/// parallel CellResult vector. The shared core of run_sweep (all cells) and
/// run_shard (one shard's cells). `progress_prefix` is prepended to every
/// progress line ("shard i/N " for sharded runs, empty otherwise); done/total
/// counts are local to `cells`.
std::vector<CellResult> run_cells(const ScenarioSpec& spec,
                                  const std::vector<Cell>& cells,
                                  const SweepOptions& opt,
                                  const std::string& progress_prefix) {
  const auto n_cells = cells.size();
  const auto trials = static_cast<std::size_t>(spec.trials);
  const bool async = spec.is_async();
  telemetry::RunTelemetry* tel = opt.telemetry;

  std::mutex progress_mutex;
  std::size_t completed = 0;
  const std::int64_t run_t0_us = telemetry::now_us();
  std::ostream* progress_out =
      opt.progress_stream != nullptr ? opt.progress_stream : &std::cerr;
  const auto report_cell = [&](const Cell& cell, const char* how) {
    if (!opt.progress) return;
    // Count under the print lock so the [n/N] indices are monotone in the
    // output even when cells finish simultaneously.
    const std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    // Elapsed / rate / ETA ride at the END of the line: the prefix through
    // the done|cached token is a stable contract (tests parse it), the tail
    // is advisory. The ETA extrapolates the observed completion rate, which
    // assumes the remaining cells cost like the finished ones.
    const double elapsed_s =
        static_cast<double>(telemetry::now_us() - run_t0_us) / 1e6;
    const double rate =
        static_cast<double>(completed) / std::max(elapsed_s, 1e-9);
    const double eta_s = static_cast<double>(n_cells - completed) / rate;
    char tail[96];
    std::snprintf(tail, sizeof(tail),
                  " elapsed=%.1fs rate=%.1f/s eta=%.1fs", elapsed_s, rate,
                  eta_s);
    *progress_out << "progress: " << progress_prefix << "[" << completed
                  << "/" << n_cells << "] " << spec.name << " "
                  << cell.strategy_name << " k=" << cell.k
                  << " D=" << cell.distance
                  << " placement=" << cell.placement_spec << " " << how
                  << tail << "\n";
  };

  std::vector<CellResult> results(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) results[i].cell = cells[i];

  // Cells finished so far (cached or computed) — drives the telemetry
  // heartbeat's done/total, which must not share the progress counter (that
  // one only advances when progress printing is on).
  std::atomic<std::uint64_t> cells_done{0};

  // Packed-index cache front end: when the cache_dir has been compacted
  // (`search_lab cache pack`), warm lookups hit an in-memory map loaded
  // once from the mmap'ed journal instead of an open+parse per cell. The
  // per-hash files remain the fallback on index misses, so a packed and an
  // unpacked cache_dir serve byte-identical results. Torn journal records
  // skipped during the load surface as cache_corrupt telemetry — same
  // signal as a corrupt per-hash file.
  std::unique_ptr<PackedCacheIndex> pack;
  if (!opt.cache_dir.empty()) {
    pack = std::make_unique<PackedCacheIndex>(opt.cache_dir);
    if (!pack->present()) pack.reset();
    if (pack != nullptr && tel != nullptr && pack->corrupt_records() > 0) {
      tel->record_cache_corrupt(pack->corrupt_records());
    }
  }

  // Cache pass: cells whose aggregates are already on disk never re-run —
  // also how a killed shard resumes, since finished cells persist as the
  // sweep runs (see finalize_cell below). A corrupt per-hash entry (torn
  // bytes, missing field) reads as a miss — the cell recomputes and the
  // overwrite heals the cache — but is counted separately: a corruption
  // rate is an operational signal a plain miss is not.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n_cells; ++i) {
    bool hit = false;
    if (!opt.cache_dir.empty()) {
      if (pack != nullptr && pack->load(cells[i].hash, &results[i])) {
        hit = true;
      } else {
        const CacheLookup lookup =
            cache_lookup(opt.cache_dir, cells[i].hash, &results[i]);
        hit = lookup == CacheLookup::kHit;
        if (lookup == CacheLookup::kCorrupt && tel != nullptr) {
          tel->record_cache_corrupt();
        }
      }
    }
    if (hit) {
      results[i].from_cache = true;
      report_cell(cells[i], "cached");
      if (tel != nullptr) {
        tel->record_cache_hit();
        tel->cell_end(i, cells[i].strategy_name, cells[i].k,
                      cells[i].distance, /*cached=*/true, /*duration_us=*/0,
                      /*trials=*/0, cells_done.fetch_add(1) + 1, n_cells);
      }
    } else {
      if (tel != nullptr && !opt.cache_dir.empty()) tel->record_cache_miss();
      pending.push_back(i);
    }
  }
  if (pending.empty()) return results;

  // Strategies are built once per (strategy, k) — cells along the distance
  // and placement grids share the object — and read-only shared across
  // scheduler threads, same as sim::run_trials shares its strategy.
  std::map<std::pair<std::size_t, std::int64_t>, BuiltStrategy> by_sk;
  std::vector<const BuiltStrategy*> built(n_cells, nullptr);
  for (const std::size_t i : pending) {
    const auto key = std::make_pair(cells[i].strategy_index, cells[i].k);
    auto it = by_sk.find(key);
    if (it == by_sk.end()) {
      it = by_sk
               .emplace(key, Registry::instance().make(
                                 cells[i].strategy_spec,
                                 BuildContext{static_cast<int>(cells[i].k)}))
               .first;
    }
    built[i] = &it->second;
  }

  // Placement policies, target processes, schedule, and crash model are
  // stateless draws from the trial rng — one shared instance per spec is
  // thread-safe. Target processes compose the placement policy (grid points
  // or plane angles) with the cell's target-process spec, so they are
  // compiled per (placement, targets) pair and per substrate — a paired
  // grid-vs-plane spec fills both sides of the same TargetProcess slot.
  const std::size_t n_targets = spec.targets.size();
  std::vector<sim::Placement> placements(spec.placements.size());
  std::vector<sim::TargetProcess> target_processes(spec.placements.size() *
                                                   n_targets);
  std::vector<std::function<double(rng::Rng&)>> plane_angles(
      spec.placements.size());
  for (const std::size_t i : pending) {
    const Cell& cell = cells[i];
    const std::size_t di = cell.placement_index * n_targets +
                           cell.targets_index;
    if (built[i]->is_plane()) {
      if (!plane_angles[cell.placement_index]) {
        plane_angles[cell.placement_index] =
            make_plane_angle(cell.placement_spec);
      }
      if (!target_processes[di].plane) {
        target_processes[di].plane =
            make_plane_targets(cell.targets_spec,
                               plane_angles[cell.placement_index])
                .plane;
      }
      continue;
    }
    if (!placements[cell.placement_index]) {
      placements[cell.placement_index] = make_placement(cell.placement_spec);
    }
    if (!target_processes[di].grid) {
      target_processes[di].grid =
          make_targets(cell.targets_spec, placements[cell.placement_index])
              .grid;
    }
  }
  const std::unique_ptr<sim::StartSchedule> schedule =
      make_schedule(spec.schedule);
  const std::unique_ptr<sim::CrashModel> crashes = make_crash(spec.crash);

  sim::EngineConfig engine_config;
  engine_config.time_cap = spec.effective_time_cap();

  // Target-process aggregates accumulate per trial into trial-indexed slots
  // and are reduced in trial order in finalize_cell — atomic double sums
  // would make the means depend on scheduling and break the thread-count
  // byte-identity contract.
  const bool dynamic = spec.is_dynamic();
  const bool collect_all = spec.collect_all();
  const sim::Time capture_dwell = spec.capture_dwell();
  constexpr std::size_t kSlots = CellResult::kTargetTimeSlots;

  std::vector<std::vector<double>> times(n_cells);
  std::vector<std::vector<double>> from_last(async ? n_cells : 0);
  std::vector<std::vector<double>> crashed(async ? n_cells : 0);
  std::vector<std::vector<double>> last_starts(async ? n_cells : 0);
  std::vector<std::vector<double>> spawned(dynamic ? n_cells : 0);
  std::vector<std::vector<double>> found_count(dynamic ? n_cells : 0);
  std::vector<std::vector<double>> fbv(dynamic ? n_cells : 0);
  std::vector<std::vector<double>> slot_times(collect_all ? n_cells : 0);
  for (const std::size_t i : pending) {
    times[i].resize(trials);
    if (async) {
      from_last[i].resize(trials);
      crashed[i].resize(trials);
      last_starts[i].resize(trials);
    }
    if (dynamic) {
      spawned[i].resize(trials);
      found_count[i].resize(trials);
      fbv[i].resize(trials);
    }
    if (collect_all) slot_times[i].assign(trials * kSlots, -1.0);
  }
  std::vector<std::atomic<std::int64_t>> found(n_cells);
  std::vector<std::atomic<std::int64_t>> first_target_sum(n_cells);
  std::vector<std::atomic<std::int64_t>> remaining(n_cells);
  for (const std::size_t i : pending) {
    remaining[i].store(static_cast<std::int64_t>(trials));
  }
  // Per-cell wall clock (telemetry only): the worker that runs a cell's
  // FIRST trial CASes its start timestamp in (and emits cell_start); the
  // worker that finishes its LAST trial reads it back for the duration.
  // Cells overlap arbitrarily under the flat (cell, trial) schedule, so a
  // cell's wall time spans concurrent work on other cells — it measures
  // latency, not exclusive CPU.
  std::vector<std::atomic<std::int64_t>> cell_start_us(tel != nullptr
                                                           ? n_cells
                                                           : 0);

  // Runs on the scheduler thread that completes a cell's LAST trial: the
  // cell's aggregates are final, so they publish to the result slot and the
  // cache immediately. Persisting per cell mid-run (instead of once at the
  // end) is what makes a killed shard resumable — every finished cell
  // survives the kill, and the rerun's cache pass skips it.
  const auto finalize_cell = [&](std::size_t i) {
    results[i].stats =
        sim::make_run_stats(std::move(times[i]), found[i].load(),
                            cells[i].distance, static_cast<int>(cells[i].k));
    if (async) {
      results[i].from_last_start = stats::Summary::from(from_last[i]);
      results[i].mean_crashed = stats::Summary::from(crashed[i]).mean;
      results[i].mean_last_start = stats::Summary::from(last_starts[i]).mean;
    }
    results[i].mean_first_target =
        found[i].load() > 0
            ? static_cast<double>(first_target_sum[i].load()) /
                  static_cast<double>(found[i].load())
            : -1.0;
    if (dynamic) {
      const auto mean_of = [](const std::vector<double>& v) {
        double sum = 0;
        for (const double x : v) sum += x;
        return v.empty() ? -1.0 : sum / static_cast<double>(v.size());
      };
      results[i].mean_targets_spawned = mean_of(spawned[i]);
      results[i].mean_targets_found = mean_of(found_count[i]);
      results[i].found_before_vanish = mean_of(fbv[i]);
    }
    if (collect_all) {
      for (std::size_t j = 0; j < kSlots; ++j) {
        double sum = 0;
        std::size_t n_found = 0;
        for (std::size_t t = 0; t < trials; ++t) {
          const double v = slot_times[i][t * kSlots + j];
          if (v >= 0) {
            sum += v;
            ++n_found;
          }
        }
        results[i].target_time_mean[j] =
            n_found > 0 ? sum / static_cast<double>(n_found) : -1.0;
      }
    }
    if (!opt.cache_dir.empty()) {
      // Packed cache_dirs take the append-journal path (one O_APPEND write,
      // CRC-framed, safe against concurrent shard processes); unpacked ones
      // keep the per-hash temp+rename discipline. Either way the cell
      // persists the moment it completes — the killed-shard resume
      // contract.
      if (pack != nullptr) {
        pack->append(cells[i].hash, results[i]);
      } else {
        cache_store(opt.cache_dir, cells[i].hash, results[i]);
      }
    }
    report_cell(cells[i], "done");
    if (tel != nullptr) {
      const std::int64_t duration_us =
          telemetry::now_us() -
          cell_start_us[i].load(std::memory_order_relaxed);
      tel->cell_end(i, cells[i].strategy_name, cells[i].k, cells[i].distance,
                    /*cached=*/false, duration_us, trials,
                    cells_done.fetch_add(1) + 1, n_cells);
    }
  };

  // Trace hookup: one track per scheduler worker, labelled spans named
  // after the cell. Labels are prebuilt so the per-trial record is just a
  // push/extend on the worker's own buffer.
  // Work items are (cell, trial-block) pairs: kTrialBlock consecutive
  // trials of one cell per item, so a worker amortizes one batch runner
  // (SoA workspaces, SIMD kernels — sim/batch/) across the block while the
  // scheduler stays granular enough for cells to overlap. The mapping is
  // index arithmetic, not a materialized pair vector: huge sweeps must not
  // pay O(cells * blocks) memory before any work runs.
  const std::size_t blocks_per_cell =
      (trials + sim::batch::kTrialBlock - 1) / sim::batch::kTrialBlock;
  const std::size_t n_items = pending.size() * blocks_per_cell;
  const unsigned n_workers = util::parallel_workers(n_items, opt.threads);

  telemetry::TraceCollector* trace = tel != nullptr ? tel->trace() : nullptr;
  if (trace != nullptr) {
    std::vector<std::string> labels(n_cells);
    for (const std::size_t i : pending) {
      labels[i] = cells[i].strategy_name + " k=" +
                  std::to_string(cells[i].k) + " D=" +
                  std::to_string(cells[i].distance);
    }
    trace->begin_workers(n_workers, std::move(labels));
  }
  telemetry::RunTelemetry::PhaseScope execute_scope(
      tel, telemetry::Phase::kExecute);

  // Each worker keeps ONE batch runner, rebuilt only when it crosses to a
  // cell with a different (strategy, k) pair; consecutive blocks of the
  // same cell reuse its workspaces wholesale.
  struct WorkerCache {
    const void* strategy = nullptr;
    std::int64_t k = -1;
    std::unique_ptr<sim::batch::BatchRunner> runner;
  };
  std::vector<WorkerCache> runner_cache(n_workers);

  util::parallel_for(
      n_items,
      [&](std::size_t item, unsigned worker) {
        const std::size_t ci = pending[item / blocks_per_cell];
        const std::size_t block = item % blocks_per_cell;
        const std::size_t trial_begin = block * sim::batch::kTrialBlock;
        const std::size_t trial_end =
            std::min(trials, trial_begin + sim::batch::kTrialBlock);
        const Cell& cell = cells[ci];
        if (tel != nullptr &&
            cell_start_us[ci].load(std::memory_order_relaxed) == 0) {
          std::int64_t expected = 0;
          if (cell_start_us[ci].compare_exchange_strong(
                  expected, telemetry::now_us(),
                  std::memory_order_relaxed)) {
            tel->cell_start(ci, cell.strategy_name, cell.k, cell.distance);
          }
        }

        WorkerCache& cache = runner_cache[worker];
        if (cache.strategy != built[ci] || cache.k != cell.k) {
          sim::TrialStrategy strategy;
          strategy.segment = built[ci]->segment.get();
          strategy.step = built[ci]->step.get();
          strategy.plane = built[ci]->plane.get();
          cache.runner = std::make_unique<sim::batch::BatchRunner>(
              strategy, static_cast<int>(cell.k), engine_config);
          cache.strategy = built[ci];
          cache.k = cell.k;
        }

        const sim::TargetProcess& process =
            target_processes[cell.placement_index * n_targets +
                             cell.targets_index];
        for (std::size_t trial = trial_begin; trial < trial_end; ++trial) {
          const std::int64_t trial_t0 =
              trace != nullptr ? telemetry::now_us() : 0;
          rng::Rng trial_rng(rng::mix_seed(cell.seed, trial));
          // THE executor call site: every cell — any strategy family (grid
          // segment/step or continuous plane), any schedule/crash/targets
          // combination — runs through the batch executor, which is
          // byte-identical to sim::run_trial per trial (seed derivation is
          // untouched; batching is an execution detail). Base-model specs
          // take the executor's empty-starts/lifetimes fast path instead
          // of drawing all-zero/immortal vectors every trial: the sync hot
          // path must not pay for axes it does not use.
          sim::TrialEnvironment env;
          if (built[ci]->is_plane()) {
            process.plane(trial_rng, cell.distance, engine_config.time_cap,
                          &env);
          } else {
            process.grid(trial_rng, cell.distance, engine_config.time_cap,
                         &env);
          }
          if (async) {
            env = sim::draw_environment(static_cast<int>(cell.k),
                                        std::move(env), *schedule, *crashes,
                                        trial_rng);
          }
          env.capture_dwell = capture_dwell;
          env.collect_all = collect_all;
          const sim::TrialResult r = cache.runner->run_one(env, trial_rng);
          times[ci][trial] = r.time;
          if (async) {
            from_last[ci][trial] = r.from_last_start;
            crashed[ci][trial] = static_cast<double>(r.crashed);
            last_starts[ci][trial] = r.last_start;
          }
          if (r.found) {
            found[ci].fetch_add(1, std::memory_order_relaxed);
            first_target_sum[ci].fetch_add(r.first_target,
                                           std::memory_order_relaxed);
          }
          if (dynamic) {
            const double nt = static_cast<double>(
                built[ci]->is_plane() ? env.plane_targets.size()
                                      : env.targets.size());
            double nf = r.found ? 1.0 : 0.0;
            if (collect_all) {
              nf = 0;
              for (const double tt : r.target_times) nf += tt >= 0 ? 1 : 0;
              const std::size_t ns =
                  std::min(kSlots, r.target_times.size());
              for (std::size_t j = 0; j < ns; ++j) {
                slot_times[ci][trial * kSlots + j] = r.target_times[j];
              }
            }
            spawned[ci][trial] = nt;
            found_count[ci][trial] = nf;
            fbv[ci][trial] = nt > 0 ? nf / nt : 1.0;
          }
          if (trace != nullptr) {
            trace->record_trial(worker, ci, trial_t0, telemetry::now_us());
          }
        }

        // Drain the runner's delegation count once per block (zero for
        // every spec-driven cell; a nonzero count is a routing regression).
        const std::uint64_t fallbacks = cache.runner->take_scalar_fallbacks();
        if (tel != nullptr && fallbacks > 0) {
          tel->record_batch_scalar_fallback(fallbacks);
        }

        const auto done =
            static_cast<std::int64_t>(trial_end - trial_begin);
        if (remaining[ci].fetch_sub(done, std::memory_order_acq_rel) ==
            done) {
          finalize_cell(ci);
        }
      },
      opt.threads);

  if (trace != nullptr) trace->end_workers();
  return results;
}

std::string shard_prefix(std::size_t shard, std::size_t n_shards) {
  if (n_shards <= 1) return "";
  return "shard " + std::to_string(shard) + "/" + std::to_string(n_shards) +
         " ";
}

}  // namespace

std::vector<CellResult> run_sweep(const ScenarioSpec& spec,
                                  const SweepOptions& opt) {
  std::vector<Cell> cells;
  {
    const telemetry::RunTelemetry::PhaseScope plan_scope(
        opt.telemetry, telemetry::Phase::kPlan);
    cells = flatten(spec);
  }
  if (opt.telemetry != nullptr) {
    opt.telemetry->begin_run(spec.name, cells.size(),
                             static_cast<std::uint64_t>(spec.trials));
  }
  // The 1/1 special case of the sharded pipeline: all cells, no prefix.
  return run_cells(spec, cells, opt, "");
}

std::vector<CellResult> run_shard(const SweepPlan& plan, std::size_t shard,
                                  std::size_t n_shards,
                                  const SweepOptions& opt) {
  std::vector<Cell> cells;
  {
    const telemetry::RunTelemetry::PhaseScope plan_scope(
        opt.telemetry, telemetry::Phase::kPlan);
    const std::vector<std::size_t> indices =
        shard_cell_indices(plan, shard, n_shards);
    cells.reserve(indices.size());
    for (const std::size_t i : indices) cells.push_back(plan.cells[i]);
  }
  if (opt.telemetry != nullptr) {
    opt.telemetry->begin_run(plan.spec.name, cells.size(),
                             static_cast<std::uint64_t>(plan.spec.trials),
                             shard, n_shards);
  }
  return run_cells(plan.spec, cells, opt, shard_prefix(shard, n_shards));
}

void write_shard(const std::string& path, const SweepPlan& plan,
                 std::size_t shard, std::size_t n_shards,
                 const std::vector<CellResult>& results,
                 const telemetry::RunMetrics* metrics,
                 ArtifactFormat format) {
  const std::vector<std::size_t> indices =
      shard_cell_indices(plan, shard, n_shards);
  if (results.size() != indices.size()) {
    detail::bad("write_shard: " + std::to_string(results.size()) +
                " results for a " + std::to_string(indices.size()) +
                "-cell shard");
  }
  ShardHeader header;
  header.format_version = cell_format_version();
  header.spec_hash = plan.spec_hash;
  header.spec_text = plan.spec.canonical();
  header.shard = shard;
  header.n_shards = n_shards;
  header.n_cells_total = plan.cells.size();
  std::vector<ShardEntry> entries(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    entries[j].cell_index = indices[j];
    // Aggregates only: neither the raw per-trial times (a fresh cell
    // carries trials doubles — copying them just to drop them would spike
    // memory on big shards) nor the Cell (merge reattaches it from the
    // plan) go to disk.
    CellResult& slim = entries[j].result;
    const CellResult& full = results[j];
    slim.stats.time = full.stats.time;
    slim.stats.success_rate = full.stats.success_rate;
    slim.stats.mean_competitiveness = full.stats.mean_competitiveness;
    slim.stats.median_competitiveness = full.stats.median_competitiveness;
    slim.stats.distance = full.stats.distance;
    slim.stats.k = full.stats.k;
    slim.from_last_start = full.from_last_start;
    slim.mean_crashed = full.mean_crashed;
    slim.mean_last_start = full.mean_last_start;
    slim.mean_first_target = full.mean_first_target;
    slim.mean_targets_found = full.mean_targets_found;
    slim.mean_targets_spawned = full.mean_targets_spawned;
    slim.found_before_vanish = full.found_before_vanish;
    for (std::size_t j = 0; j < CellResult::kTargetTimeSlots; ++j) {
      slim.target_time_mean[j] = full.target_time_mean[j];
    }
    slim.from_cache = full.from_cache;
  }
  std::string line;
  const std::string* metrics_line = nullptr;
  if (metrics != nullptr) {
    line = telemetry::metrics_to_json(*metrics, plan.spec.name, shard,
                                      n_shards);
    metrics_line = &line;
  }
  if (format == ArtifactFormat::kBinary) {
    write_binary_artifact(path, header, entries, metrics_line);
  } else {
    write_shard_artifact(path, header, entries, metrics_line);
  }
}

std::vector<CellResult> merge_shards(const SweepPlan& plan,
                                     const std::vector<std::string>& paths,
                                     telemetry::RunMetrics* metrics_out) {
  if (paths.empty()) detail::bad("merge_shards: no artifacts given");
  const std::size_t n = plan.cells.size();
  std::vector<CellResult> merged(n);
  std::vector<bool> seen(n, false);

  // Read phase runs one artifact per pool slot — I/O and parsing dominate a
  // merge, and the artifacts are independent files. read_any_artifact
  // dispatches per file on the magic sniff, so JSONL and binary shards mix
  // freely in one merge. parallel_for propagates the first reader's
  // exception, so a bad artifact still fails the merge with its own
  // message.
  struct LoadedShard {
    ShardHeader header;
    std::vector<ShardEntry> entries;
    std::string metrics_line;
  };
  std::vector<LoadedShard> shards(paths.size());
  util::parallel_for(paths.size(), [&](std::size_t i) {
    shards[i].header = read_any_artifact(paths[i], &shards[i].entries,
                                         &shards[i].metrics_line);
  });

  // Validation and placement stay sequential in `paths` order: duplicate
  // detection attributes the SECOND artifact to touch a cell, which must
  // not depend on read-completion timing.
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    const std::string& path = paths[pi];
    const ShardHeader& header = shards[pi].header;
    std::vector<ShardEntry>& entries = shards[pi].entries;
    const std::string& metrics_line = shards[pi].metrics_line;
    if (metrics_out != nullptr && !metrics_line.empty()) {
      // Exact re-aggregation: counter sums plus a bin-wise sketch merge, so
      // the campaign-level quantiles equal a single process's. An artifact
      // without a metrics line contributes nothing (telemetry-free shard).
      metrics_out->merge(telemetry::metrics_from_json(metrics_line, nullptr,
                                                      nullptr, nullptr));
    }
    if (header.format_version != cell_format_version()) {
      detail::bad("shard artifact " + path + ": format version " +
                  std::to_string(header.format_version) +
                  " does not match this build's " +
                  std::to_string(cell_format_version()) +
                  " — regenerate the shard");
    }
    if (header.spec_hash != plan.spec_hash) {
      detail::bad("shard artifact " + path +
                  ": produced from a different spec (spec hash mismatch) — "
                  "a merge may only combine shards of one identical spec");
    }
    if (header.n_cells_total != n) {
      detail::bad("shard artifact " + path + ": plan has " +
                  std::to_string(n) + " cells, artifact claims " +
                  std::to_string(header.n_cells_total));
    }
    for (ShardEntry& entry : entries) {
      if (entry.cell_index >= n) {
        detail::bad("shard artifact " + path + ": cell index " +
                    std::to_string(entry.cell_index) + " out of range");
      }
      if (seen[entry.cell_index]) {
        detail::bad("merge_shards: duplicate cell " +
                    std::to_string(entry.cell_index) + " (artifact " + path +
                    " overlaps an earlier shard — was a shard merged "
                    "twice?)");
      }
      seen[entry.cell_index] = true;
      merged[entry.cell_index] = std::move(entry.result);
      merged[entry.cell_index].cell = plan.cells[entry.cell_index];
    }
  }

  std::size_t missing = 0;
  std::size_t first_missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) {
      if (missing == 0) first_missing = i;
      ++missing;
    }
  }
  if (missing > 0) {
    detail::bad("merge_shards: " + std::to_string(missing) + " of " +
                std::to_string(n) + " cells missing (first: cell " +
                std::to_string(first_missing) +
                ") — were all shards run and listed?");
  }
  return merged;
}

std::vector<CellResult> merge_shards(const std::vector<std::string>& paths,
                                     ScenarioSpec* spec_out,
                                     telemetry::RunMetrics* metrics_out) {
  if (paths.empty()) detail::bad("merge_shards: no artifacts given");
  const ShardHeader header = read_any_artifact(paths.front(), nullptr);
  const std::vector<ScenarioSpec> specs = parse_spec_text(header.spec_text);
  if (specs.size() != 1) {
    detail::bad("shard artifact " + paths.front() +
                ": embedded spec does not parse to exactly one scenario");
  }
  const SweepPlan plan = make_plan(specs.front());
  if (plan.spec_hash != header.spec_hash) {
    detail::bad("shard artifact " + paths.front() +
                ": embedded spec re-hashes differently — artifact written "
                "by an incompatible build");
  }
  if (spec_out != nullptr) *spec_out = specs.front();
  return merge_shards(plan, paths, metrics_out);
}

}  // namespace ants::scenario

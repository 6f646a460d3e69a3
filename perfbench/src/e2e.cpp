// Untraced mode: the workload through the pipeline entry points that
// search_lab uses, timed as whole passes after one warm-up pass.
#include "e2e.h"

#include <filesystem>
#include <string>
#include <vector>

#include "scenario/sweep.h"

namespace perfbench {

namespace {

using namespace ants;

constexpr int kMinPasses = 3;
constexpr int kTailSamplesPerPass = 3;  // warm re-runs, and merges, per pass
constexpr int kSetupSamplesPerPass = 3;
constexpr int kMinSetupReps = 2;  // no set-up sample is a single call
constexpr double kMinSetupSampleS = 0.2;
constexpr double kMinTailSampleS = 0.1;

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double trial_wall_s = 0;  ///< the trial-running phase
  double merge_s = 0;       ///< campaign_io only (else from the tail)
  double warm_s = 0;        ///< campaign_io only (else from the tail)
};

/// Wall seconds of one call of `body`.
template <typename Body>
double timed(Body&& body) {
  const double t0 = now_s();
  body();
  return now_s() - t0;
}

/// One pass of campaign_io: shards 1..3 in turn with a result cache, their
/// artifacts, the merge, then the warm full re-run from the filled cache.
Pass sharded_pass(const std::vector<scenario::SweepPlan>& plans,
                  const std::string& dir, std::string* merged_rows,
                  std::string* warm_rows) {
  const std::string cache = dir + "/cache";
  const std::string artifacts = dir + "/artifacts";
  reset_dir(cache);
  reset_dir(artifacts);
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  std::vector<std::vector<std::vector<scenario::CellResult>>> shard_results(
      plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::size_t s = 1; s <= kShards; ++s) {
      shard_results[p].push_back(
          scenario::run_shard(plans[p], s, kShards, sweep_options(cache)));
    }
  }
  const double t1 = now_s();
  const auto paths = artifact_paths(plans, artifacts);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::size_t s = 1; s <= kShards; ++s) {
      scenario::write_shard(paths[p][s - 1], plans[p], s, kShards,
                            shard_results[p][s - 1]);
    }
  }
  const double t2 = now_s();
  const auto merged = merge_all(plans, paths);
  const double t3 = now_s();
  const auto warm = sweep_all(plans, cache);
  const double t4 = now_s();
  const double c4 = process_cpu_s();
  *merged_rows = render_rows(plans, merged);
  *warm_rows = render_rows(plans, warm);
  Pass pass;
  pass.wall_s = t4 - t0;
  pass.cpu_s = c4 - c0;
  pass.trial_wall_s = t1 - t0;
  pass.merge_s = t3 - t2;
  pass.warm_s = t4 - t3;
  return pass;
}

}  // namespace

std::string run_e2e(const Workload& w, const std::string& work_dir,
                    const std::string& out_dir, double seconds) {
  namespace fs = std::filesystem;
  const std::string rows_dir = out_dir + "/rows";
  reset_dir(rows_dir);

  // Set-up samples and (on the compute workloads) the warm and merge tails
  // are interleaved with the passes, so that every metric samples the
  // host over the whole run rather than over one short stretch of it.
  Batched setup([&] { run_setup(w); }, kMinSetupSampleS, kMinSetupReps);
  std::vector<double> setup_samples;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupSamplesPerPass; ++i) {
      setup_samples.push_back(setup.sample());
    }
  };
  const std::vector<scenario::SweepPlan> plans = run_setup(w);

  std::vector<Pass> passes;
  std::vector<double> warm_samples, merge_samples;
  std::string pass_rows, merged_rows, warm_rows, single_rows;
  std::size_t row_mismatches = 0;  // passes whose rows differ from the first
  auto more_passes = [&, t_begin = -1.0]() mutable {
    if (t_begin < 0) t_begin = now_s();
    return static_cast<int>(passes.size()) < kMinPasses ||
           now_s() - t_begin < seconds;
  };

  if (w.sharded_io) {
    // The single-process reference rows (also warms the compute code).
    single_rows = render_rows(plans, sweep_all(plans));
    const std::string dir = work_dir + "/pass";
    sharded_pass(plans, dir, &merged_rows, &warm_rows);  // warm-up
    pass_rows = merged_rows;
    while (more_passes()) {
      sample_setup();
      std::string m, wr;
      passes.push_back(sharded_pass(plans, dir, &m, &wr));
      if (m != pass_rows) ++row_mismatches;
      merged_rows = m;
      warm_rows = wr;
      // The pass's own warm re-run and merge, then more of each on the
      // cache and artifacts it left.
      warm_samples.push_back(passes.back().warm_s);
      merge_samples.push_back(passes.back().merge_s);
      const auto paths = artifact_paths(plans, dir + "/artifacts");
      for (int i = 1; i < kTailSamplesPerPass; ++i) {
        warm_samples.push_back(
            timed([&] { sweep_all(plans, dir + "/cache"); }));
        merge_samples.push_back(timed([&] { merge_all(plans, paths); }));
      }
    }
    fs::remove_all(dir);
  } else {
    // Warm-up pass: fills the cache the warm re-run is answered from and
    // gives the results the merge tail's artifact is written from. That
    // artifact holds the whole result as one shard: three artifacts of a
    // few dozen cells would time merge_shards starting its reader threads
    // more than the merge itself.
    const std::string cache = work_dir + "/warm_cache";
    const std::string artifacts = work_dir + "/artifacts";
    reset_dir(cache);
    reset_dir(artifacts);
    const auto first = sweep_all(plans, cache);
    pass_rows = render_rows(plans, first);
    warm_rows = render_rows(plans, sweep_all(plans, cache));
    const auto paths = artifact_paths(plans, artifacts, /*n_shards=*/1);
    write_artifacts(plans, first, paths);
    merged_rows = render_rows(plans, merge_all(plans, paths));
    // The warm re-run and the merge take well under kMinTailSampleS here,
    // so each is timed in batches.
    Batched warm([&] { sweep_all(plans, cache); }, kMinTailSampleS);
    Batched merge([&] { merge_all(plans, paths); }, kMinTailSampleS);
    while (more_passes()) {
      sample_setup();
      const double t0 = now_s();
      const double c0 = process_cpu_s();
      const auto results = sweep_all(plans);
      Pass pass;
      pass.wall_s = now_s() - t0;
      pass.cpu_s = process_cpu_s() - c0;
      pass.trial_wall_s = pass.wall_s;
      passes.push_back(pass);
      if (render_rows(plans, results) != pass_rows) ++row_mismatches;
      for (int i = 0; i < kTailSamplesPerPass; ++i) {
        warm_samples.push_back(warm.sample());
        merge_samples.push_back(merge.sample());
      }
    }
    fs::remove_all(cache);
    fs::remove_all(artifacts);
  }
  write_file(rows_dir + "/pass.csv", pass_rows);
  write_file(rows_dir + "/merged.csv", merged_rows);
  write_file(rows_dir + "/warm.csv", warm_rows);
  if (!single_rows.empty()) write_file(rows_dir + "/single.csv", single_rows);

  std::vector<double> wall, cpu, trial_wall;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    trial_wall.push_back(p.trial_wall_s);
  }
  std::size_t cells = 0;
  for (const auto& plan : plans) cells += plan.cells.size();
  JsonObject report;
  report.str("mode", "e2e")
      .str("workload", w.name)
      .num("threads", kThreads)
      .num("cells", static_cast<double>(cells))
      .num("trials_per_pass", static_cast<double>(total_trials(plans)))
      .nums("wall_s", wall)
      .nums("cpu_s", cpu)
      .nums("trial_wall_s", trial_wall)
      .nums("setup_s", setup_samples)
      .nums("warm_s", warm_samples)
      .nums("merge_s", merge_samples)
      .num("peak_rss_mb", peak_rss_mb())
      .num("pass_row_mismatches", static_cast<double>(row_mismatches))
      .str("rows_dir", rows_dir)
      .raw("provenance", provenance_json(work_dir));
  return report.render();
}

}  // namespace perfbench

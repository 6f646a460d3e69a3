// Shared helpers of the perfbench workload runner: clocks, process
// counters, file helpers, a minimal JSON writer, and the workload inputs
// (spec templates instantiated with the benchmark seed).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/plan.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"

namespace perfbench {

/// Scheduler threads of every sweep the benchmark runs. Fixed, never
/// derived from the host's core count, so two hosts (or two runs on a host
/// whose visible core count changes) measure the same schedule.
inline constexpr unsigned kThreads = 2;

/// Seconds on the steady clock.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process (all threads).
double process_cpu_s();

/// Peak resident set of this process in MB.
double peak_rss_mb();

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// Removes `dir` recursively (if present) and creates it empty.
void reset_dir(const std::string& dir);

/// Regular files under `dir` (recursive) and their total size in bytes.
void dir_usage(const std::string& dir, std::uint64_t* files,
               std::uint64_t* bytes);

/// Filesystem type of the mount holding `path` ("tmpfs", "ext4", ...),
/// from the longest matching mount point in /proc/mounts.
std::string filesystem_type(const std::string& path);

/// Times a short call in batches so that no reported timing is a single
/// call shorter than the clock and scheduler noise floor. The first
/// sample() doubles the repetition count from `min_reps` until one batch
/// takes at least `min_sample_s`; later samples reuse that count. Each
/// sample is the batch time per repetition, in seconds.
template <typename Body>
class Batched {
 public:
  Batched(Body body, double min_sample_s, int min_reps = 1)
      : body_(std::move(body)), min_sample_s_(min_sample_s), reps_(min_reps) {}

  double sample() {
    for (;;) {
      const double t0 = now_s();
      for (int r = 0; r < reps_; ++r) body_();
      const double dt = now_s() - t0;
      if (calibrated_ || dt >= min_sample_s_ || reps_ >= (1 << 20)) {
        calibrated_ = true;
        return dt / reps_;
      }
      reps_ *= 2;
    }
  }

 private:
  Body body_;
  double min_sample_s_;
  int reps_;
  bool calibrated_ = false;
};

/// `samples` consecutive Batched samples of `body`.
template <typename Body>
std::vector<double> batched_samples(Body body, int samples,
                                    double min_sample_s) {
  Batched<Body> batched(std::move(body), min_sample_s);
  std::vector<double> out;
  for (int s = 0; s < samples; ++s) out.push_back(batched.sample());
  return out;
}

// --- minimal JSON writer ---------------------------------------------------

std::string json_escape(const std::string& s);
std::string json_number(double v);

/// Builds one JSON object; values are pre-rendered JSON text.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- workload inputs -------------------------------------------------------

/// The inputs of one workload: its spec file instantiated with the seed.
struct Workload {
  std::string name;
  std::string spec_text;  ///< template with @SEED@ replaced
  /// True for campaign_io: each pass runs the sharded, cached pipeline
  /// (3 shards with a cache, artifacts, merge, warm re-run). Otherwise a
  /// pass is one in-process run_sweep per scenario.
  bool sharded_io = false;
};

/// Reads `<spec_dir>/<name>.spec` and substitutes the seed. Throws
/// std::invalid_argument on an unknown workload.
Workload load_workload(const std::string& name, const std::string& spec_dir,
                       std::uint64_t seed);

/// Public set-up calls before the first trial: parse, plan, and one
/// Registry::make per distinct (strategy, k) of each scenario.
std::vector<ants::scenario::SweepPlan> run_setup(const Workload& w);

/// Number of trials a full run of the plans executes.
std::uint64_t total_trials(const std::vector<ants::scenario::SweepPlan>& plans);

/// Renders every scenario's results as CSV rows prefixed with the scenario
/// name and its time cap (0 = uncapped), under one header. Throws
/// std::invalid_argument when the scenarios list different columns.
std::string render_rows(
    const std::vector<ants::scenario::SweepPlan>& plans,
    const std::vector<std::vector<ants::scenario::CellResult>>& results);

// --- the pipeline calls every mode makes ----------------------------------

/// Shard count of every sharded run and artifact set.
inline constexpr std::size_t kShards = 3;

using Results = std::vector<std::vector<ants::scenario::CellResult>>;

ants::scenario::SweepOptions sweep_options(const std::string& cache_dir = "");

/// One in-process run_sweep per scenario.
Results sweep_all(const std::vector<ants::scenario::SweepPlan>& plans,
                  const std::string& cache_dir = "");

/// Paths of the `n_shards` artifacts of every plan under `dir`.
std::vector<std::vector<std::string>> artifact_paths(
    const std::vector<ants::scenario::SweepPlan>& plans,
    const std::string& dir, std::size_t n_shards = kShards);

/// Writes the artifacts `paths` names (one per shard) for every plan from
/// full-plan results.
void write_artifacts(const std::vector<ants::scenario::SweepPlan>& plans,
                     const Results& results,
                     const std::vector<std::vector<std::string>>& paths);

/// merge_shards over every plan's artifacts.
Results merge_all(const std::vector<ants::scenario::SweepPlan>& plans,
                  const std::vector<std::vector<std::string>>& paths);

/// Host and build facts recorded with every result.
std::string provenance_json(const std::string& work_dir);

}  // namespace perfbench

#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <set>
#include <stdexcept>

#include "scenario/registry.h"
#include "scenario/sink.h"
#include "sim/batch/simd.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ants;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

void dir_usage(const std::string& dir, std::uint64_t* files,
               std::uint64_t* bytes) {
  *files = 0;
  *bytes = 0;
  if (!fs::exists(dir)) return;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++*files;
    *bytes += entry.file_size();
  }
}

std::string filesystem_type(const std::string& path) {
  const std::string abs = fs::weakly_canonical(fs::absolute(path)).string();
  std::ifstream mounts("/proc/mounts");
  std::string device, mount_point, type, rest;
  std::string best_type = "unknown";
  std::size_t best_len = 0;
  while (mounts >> device >> mount_point >> type) {
    std::getline(mounts, rest);
    const bool under =
        abs == mount_point ||
        (abs.rfind(mount_point, 0) == 0 &&
         (mount_point == "/" || abs[mount_point.size()] == '/'));
    if (under && mount_point.size() >= best_len) {
      best_len = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  return raw(key, json_number(v));
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  return raw(key, "\"" + json_escape(v) + "\"");
}

JsonObject& JsonObject::nums(const std::string& key,
                             const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return raw(key, out + "]");
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(fields_[i].first) + "\":" + fields_[i].second;
  }
  return out + "}";
}

Workload load_workload(const std::string& name, const std::string& spec_dir,
                       std::uint64_t seed) {
  static const std::set<std::string> kKnown = {"campaign", "campaign_io"};
  if (kKnown.count(name) == 0) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.spec_text = read_file(spec_dir + "/" + name + ".spec");
  const std::string token = "@SEED@";
  const std::string value = std::to_string(seed);
  for (std::size_t at = w.spec_text.find(token); at != std::string::npos;
       at = w.spec_text.find(token, at + value.size())) {
    w.spec_text.replace(at, token.size(), value);
  }
  w.sharded_io = name == "campaign_io";
  return w;
}

std::vector<scenario::SweepPlan> run_setup(const Workload& w) {
  std::vector<scenario::SweepPlan> plans;
  for (const auto& spec : scenario::parse_spec_text(w.spec_text)) {
    plans.push_back(scenario::make_plan(spec));
  }
  for (const auto& plan : plans) {
    std::set<std::pair<std::size_t, std::int64_t>> seen;
    for (const auto& cell : plan.cells) {
      if (!seen.insert({cell.strategy_index, cell.k}).second) continue;
      scenario::Registry::instance().make(
          cell.strategy_spec,
          scenario::BuildContext{static_cast<int>(cell.k)});
    }
  }
  return plans;
}

std::uint64_t total_trials(const std::vector<scenario::SweepPlan>& plans) {
  std::uint64_t n = 0;
  for (const auto& plan : plans) {
    n += plan.cells.size() * static_cast<std::uint64_t>(plan.spec.trials);
  }
  return n;
}

namespace {

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string render_rows(const std::vector<scenario::SweepPlan>& plans,
                        const Results& results) {
  std::string out;
  std::vector<std::string> header;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const scenario::ScenarioSpec& spec = plans[p].spec;
    const std::vector<std::string> columns =
        spec.columns.empty() ? scenario::default_columns() : spec.columns;
    if (p == 0) {
      header = columns;
      out += "scenario,time_cap";
      for (const auto& c : columns) out += "," + csv_field(c);
      out += "\n";
    } else if (columns != header) {
      throw std::invalid_argument("scenario '" + spec.name +
                                  "' lists other columns than the first; "
                                  "the rows of a workload share one header");
    }
    for (const auto& r : results[p]) {
      out += csv_field(spec.name) + "," + std::to_string(spec.time_cap);
      for (const auto& c : columns) {
        out += "," + csv_field(scenario::column_value(c, spec, r));
      }
      out += "\n";
    }
  }
  return out;
}

scenario::SweepOptions sweep_options(const std::string& cache_dir) {
  scenario::SweepOptions opt;
  opt.threads = kThreads;
  opt.cache_dir = cache_dir;
  return opt;
}

Results sweep_all(const std::vector<scenario::SweepPlan>& plans,
                  const std::string& cache_dir) {
  Results out;
  for (const auto& plan : plans) {
    out.push_back(scenario::run_sweep(plan.spec, sweep_options(cache_dir)));
  }
  return out;
}

std::vector<std::vector<std::string>> artifact_paths(
    const std::vector<scenario::SweepPlan>& plans, const std::string& dir,
    std::size_t n_shards) {
  std::vector<std::vector<std::string>> paths(plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::size_t s = 1; s <= n_shards; ++s) {
      paths[p].push_back(dir + "/scenario" + std::to_string(p) + ".shard" +
                         std::to_string(s) + "of" + std::to_string(n_shards));
    }
  }
  return paths;
}

void write_artifacts(const std::vector<scenario::SweepPlan>& plans,
                     const Results& results,
                     const std::vector<std::vector<std::string>>& paths) {
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const std::size_t n_shards = paths[p].size();
    for (std::size_t s = 1; s <= n_shards; ++s) {
      std::vector<scenario::CellResult> shard;
      for (const std::size_t i :
           scenario::shard_cell_indices(plans[p], s, n_shards)) {
        shard.push_back(results[p][i]);
      }
      scenario::write_shard(paths[p][s - 1], plans[p], s, n_shards, shard);
    }
  }
}

Results merge_all(const std::vector<scenario::SweepPlan>& plans,
                  const std::vector<std::vector<std::string>>& paths) {
  Results out;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    out.push_back(scenario::merge_shards(plans[p], paths[p]));
  }
  return out;
}

std::string provenance_json(const std::string& work_dir) {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
          cpu_model = line.substr(colon + 1);
          cpu_model.erase(0, cpu_model.find_first_not_of(' '));
        }
        break;
      }
    }
  }
  JsonObject o;
  o.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu_model", cpu_model)
      .str("simd_detected",
           sim::batch::simd_level_name(sim::batch::detected_simd_level()))
      .str("simd_active",
           sim::batch::simd_level_name(sim::batch::active_simd_level()))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("work_dir_fs", filesystem_type(work_dir))
      .num("threads", kThreads);
  return o.render();
}

}  // namespace perfbench

// perfbench workload runner: runs ONE named workload, untraced (end-to-end
// samples) or traced (per-layer replay), and writes its raw report as JSON.
// perfbench/run.py builds this program, applies the estimators,
// checks the result rows and prints the metrics.
//
//   perfbench_runner --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --spec-dir=DIR --work-dir=DIR --out-dir=DIR
//
// --work-dir holds the caches and shard artifacts the workload writes and
// reads back; --out-dir receives report.json, the result rows and the
// trace.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "e2e.h"
#include "traced.h"

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + a + "'");
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "spec-dir",
                          "work-dir", "out-dir"}) {
    if (args.count(key) == 0) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // A stray override would switch the executor's kernels between runs.
    if (std::getenv("ANTS_SIMD_LEVEL") != nullptr) {
      std::cerr << "perfbench: refusing to run with ANTS_SIMD_LEVEL set\n";
      return 2;
    }
    const auto args = parse_args(argc, argv);
    const perfbench::Workload w = perfbench::load_workload(
        args.at("workload"), args.at("spec-dir"),
        std::stoull(args.at("seed")));
    const std::string& work_dir = args.at("work-dir");
    const std::string& out_dir = args.at("out-dir");
    // The work dir may be a mount point; only its contents are managed.
    std::filesystem::create_directories(work_dir);
    perfbench::reset_dir(out_dir);
    const std::string report =
        args.at("trace") == "1"
            ? perfbench::run_traced(w, work_dir, out_dir + "/trace.json")
            : perfbench::run_e2e(w, work_dir, out_dir,
                                 std::stod(args.at("seconds")));
    perfbench::write_file(out_dir + "/report.json", report + "\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

// Untraced mode of the perfbench workload runner.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// Runs set-up samples, one warm-up pass, then measured passes until
/// `seconds` have elapsed (at least three), plus the warm re-run and merge
/// timings. Caches and artifacts live under `work_dir`; the result rows go
/// to `<out_dir>/rows/`. Returns the raw report as one JSON object
/// (per-pass samples; the estimators are applied by run.py).
std::string run_e2e(const Workload& w, const std::string& work_dir,
                    const std::string& out_dir, double seconds);

}  // namespace perfbench

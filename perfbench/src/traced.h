// Traced mode of the perfbench workload runner.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// Replays the workload layer by layer: set-up calls, an untraced
/// reference sweep, the cache and artifact layers, then every trial
/// through BatchRunner::run_one with run_sweep's seed derivation (its
/// per-cell results are compared with the reference sweep's; each cell's
/// trials also run once untraced just before, for trace.overhead_frac), op
/// generation and the geometry hit tests on the workload's own segments.
/// Writes the spans as a Chrome trace to `trace_path` and returns the raw
/// report as one JSON object.
std::string run_traced(const Workload& w, const std::string& work_dir,
                       const std::string& trace_path);

}  // namespace perfbench

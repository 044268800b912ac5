// The benchmark's workloads. Each runs set-up, then whole rounds of the same
// operations until the run length has been measured, then checks its
// outputs. Untraced runs report the end-to-end metrics; traced runs
// alternate untraced and traced rounds (for the tracing overhead), probe
// each layer and report the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace e2e {

const std::vector<std::string>& workload_names();

// Runs `options.workload`. Writes the traced run's Perfetto trace into
// `options.out_dir`.
Report run_workload(const Options& options);

}  // namespace e2e

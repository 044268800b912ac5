// End-to-end benchmark entry point: runs one workload in this process and prints
// its result as the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a Perfetto trace). Normally started through run.py, which
// builds this binary first.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/cli.hpp"
#include "workloads.hpp"

namespace {

// Taken during static initialisation, before main(): setup_s starts here.
const e2e::Clock::time_point g_process_start = e2e::Clock::now();

mm::json::Value metrics_json(const e2e::Report& report) {
  mm::json::Value metrics = mm::json::Value::object();
  for (const auto& m : report.metrics) {
    mm::json::Value v = mm::json::Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  return metrics;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  mm::Cli cli("e2ebench", "MarketMiner end-to-end benchmark (one workload per process)");
  auto& workload = cli.add_string("workload", "", "days_pearson | day_maronna | svc_sweeps | batch_sweep");
  auto& seed = cli.add_int("seed", 1, "input seed: the same seed gives the same inputs");
  auto& seconds = cli.add_double("seconds", 10.0, "measured run length");
  auto& trace = cli.add_int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics + trace");
  auto& out_dir = cli.add_string("out-dir", "e2ebench/out", "result and trace directory");
  std::vector<std::string> args(argv + 1, argv + argc);
  if (auto parsed = cli.try_parse(args); !parsed.has_value()) {
    std::fprintf(stderr, "%s\n\n%s", parsed.error().message.c_str(), cli.usage().c_str());
    return 2;
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end() || seed < 0 ||
      !(seconds > 0.0 && seconds <= 600.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "bad arguments\n\n%s", cli.usage().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  e2e::Options options;
  options.workload = workload;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  options.out_dir = out_dir;
  options.process_start = g_process_start;
  const e2e::Report report = e2e::run_workload(options);
  for (const auto& error : report.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());

  mm::json::Value result = mm::json::Value::object();
  result.set("correct", report.correct());
  result.set("attempted", static_cast<std::int64_t>(report.attempted));
  result.set("failed", static_cast<std::int64_t>(report.failed));
  result.set("metrics", metrics_json(report));

  // The full record: host, options, failed checks and per-layer extras.
  mm::json::Value record = result;
  record.set("workload", workload);
  record.set("seed", seed);
  record.set("seconds", seconds);
  record.set("trace", trace);
  record.set("host", e2e::host_info());
  mm::json::Value errors = mm::json::Value::array();
  for (const auto& error : report.errors) errors.push(error);
  record.set("errors", std::move(errors));
  record.set("detail", report.detail);
  const std::string stem = out_dir + "/" + workload;
  write_file(options.trace ? stem + ".layers.json" : stem + "-seed" + std::to_string(seed) + ".json",
             record.dump());

  std::printf("%s\n", result.dump().c_str());
  return 0;
}

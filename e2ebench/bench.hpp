// Shared types for the end-to-end benchmark: options, metrics, the report a
// workload hands back, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of `values` (0 when empty); takes a copy so callers keep order.
double median(std::vector<double> values);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its Perfetto trace and per-layer JSON, and
  // every run writes its result record.
  std::string out_dir;
  // Instant the process started (static initialisation of main's TU):
  // setup_s is measured from here, so it covers one cold set-up.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks; empty = correct
  std::vector<Metric> metrics;      // end-to-end (untraced) or per-layer (traced)
  // Extra per-layer figures only some workloads have (service stages, cache
  // counters), and per-round details; written to the result files only.
  mm::json::Value detail = mm::json::Value::object();

  bool correct() const { return errors.empty(); }
  // Record a check's verdict (empty string = passed).
  void check(const std::string& verdict) {
    if (!verdict.empty()) errors.push_back(verdict);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// The benchmark's own spans, kept in memory and written into the traced
// run's sink when the run ends.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name)
        : log_(log), name_(name), start_(log != nullptr ? mm::obs::now_ns() : 0) {}
    ~Scope() {
      if (log_ != nullptr) log_->events_.push_back({name_, start_, mm::obs::now_ns() - start_});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    std::int64_t start_;
  };

  void write_into(mm::obs::TraceSink& sink) const {
    auto& ring = sink.ring(kPid, "e2ebench");
    sink.set_thread_name(kPid, 0, "workload loop");
    // A sink created mid-run (a service job's) cannot show earlier spans.
    for (const auto& e : events_)
      if (e.start_ns >= sink.epoch_ns()) ring.complete(e.name, e.start_ns, e.dur_ns);
  }

 private:
  static constexpr std::int32_t kPid = 9999;  // clear of the pipeline ranks
  struct Event {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  std::vector<Event> events_;
};

// Host description recorded with every result: cores, CPU model, and the
// SIMD level the correlation kernels' runtime dispatch selected.
mm::json::Value host_info();

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Seed-derived generator seed: the program sees only generated inputs.
std::uint64_t generator_seed(std::uint64_t bench_seed, std::uint64_t salt);

}  // namespace e2e

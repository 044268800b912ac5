// Per-layer figures for the traced run. Layer probes time one public entry
// point of a layer from outside, on the workload's own day, with
// preallocated inputs and cache-warm repetition loops; pipeline figures are
// read from the program's own registry (PipelineResult::metrics or the
// service registry).
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"
#include "obs/registry.hpp"

namespace e2e {

struct ProbeInputs {
  const mm::md::Universe* universe = nullptr;
  const std::vector<mm::md::Quote>* day = nullptr;
  std::int64_t delta_s = 30;
  std::int64_t window = 100;
  // Whether the workload estimates Maronna: stats.corr_series_s then times
  // the Pearson + Maronna series, else the Pearson series alone.
  bool maronna = false;
  // Skip the stats.corr_series_s probe (the workload measures it itself).
  bool corr_series = true;
};

// Adds md.clean_ns_per_quote, md.bam_sample_ms, wire.fetch_day_ms,
// wire.parse_ns_per_quote, stats.pearson_step_us, stats.maronna_pair_us,
// stats.corr_series_s (unless disabled) and core.strategy_step_ns. Each probe
// is recorded as a span in `spans` (may be null).
void probe_layers(const ProbeInputs& in, Report& report, SpanLog* spans);

// Adds the engine.*, dag.* and mpmini.* figures from a metrics snapshot that
// covers `days` pipeline days (totals are reported per day).
void add_pipeline_layers(const mm::obs::Snapshot& metrics, double days, Report& report);

}  // namespace e2e

#include "workloads.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "checks.hpp"
#include "core/backtester.hpp"
#include "core/params.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/day_cache.hpp"
#include "marketdata/generator.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "stats/corr_store.hpp"
#include "svc/service.hpp"
#include "wire/feed.hpp"

namespace e2e {
namespace {

namespace md = mm::md;
namespace core = mm::core;
namespace engine = mm::engine;
namespace obs = mm::obs;
namespace stats = mm::stats;
namespace svc = mm::svc;

constexpr std::int64_t kDeltaS = 30;
constexpr std::int64_t kWindow = 100;
constexpr std::uint64_t kSmax = 780;  // ∆s = 30 over the 6.5 h session

// Writes the traced run's Perfetto trace, with the benchmark's spans added.
void write_trace(const Options& opt, obs::TraceSink* sink, const SpanLog& spans,
                 Report& report) {
  obs::TraceSink own;
  obs::TraceSink& target = sink != nullptr ? *sink : own;
  spans.write_into(target);
  const std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
  if (auto written = target.write_file(path); !written.has_value())
    report.check("trace: could not write " + path + ": " + written.error().message);
  report.detail.set("trace_file", path);
  report.detail.set("trace_events", static_cast<std::int64_t>(target.total_events()));
  report.detail.set("trace_dropped", static_cast<std::int64_t>(target.total_dropped()));
}

// `peak_rss` is read when the first round ends: after a fixed amount of work,
// so it does not grow with the number of rounds a faster build fits into the
// run, and before the untimed checks allocate their own copies of the data.
void add_end_to_end(Report& report, double pair_days, double timed_s, double setup_s,
                    double peak_rss, const std::vector<double>& cold_s,
                    const std::vector<double>& memo_s) {
  report.add("pair_days_per_s", pair_days / timed_s, "1/s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss, "MiB");
  report.add("job_cold_s", median(cold_s), "s");
  report.add("job_memo_s", median(memo_s), "s");
  report.detail.set("timed_s", timed_s);
  report.detail.set("cold_samples", static_cast<std::int64_t>(cold_s.size()));
  report.detail.set("memo_samples", static_cast<std::int64_t>(memo_s.size()));
}

// One progress line per round on stderr (stdout carries only the result).
void progress(const Options& opt, int round, bool traced, double round_s) {
  std::fprintf(stderr, "[%s] round %d%s: %.3f s, peak rss %.0f MiB\n", opt.workload.c_str(),
               round, traced ? " (traced)" : "", round_s, peak_rss_mb());
}

double overhead_pct(const std::vector<double>& untraced, const std::vector<double>& traced) {
  return (median(traced) / median(untraced) - 1.0) * 100.0;
}

// Whole rounds until the run length is measured; a traced run alternates
// untraced and traced rounds and needs at least one of each.
bool more_rounds(const Options& opt, int rounds, double timed_s) {
  return rounds < (opt.trace ? 2 : 1) || timed_s < opt.seconds;
}

// ---------------------------------------------------------------------------
// Pipeline workloads: days through run_pipeline, each day computed against an
// empty CorrStore and then replayed from it.

struct PipelineSpec {
  std::size_t symbols = 61;
  int days = 1;
  // Replays of each day from the CorrStore after its computed run: enough
  // that job_memo_s has a steady median even when a round holds one day.
  int replays = 1;
  std::vector<core::StrategyParams> strategies;
  std::uint64_t salt = 0;
};

core::StrategyParams paramset(stats::Ctype ctype, double divergence) {
  auto p = core::ParamGrid::base();  // ∆s = 30, M = 100, no costs
  p.ctype = ctype;
  p.divergence = divergence;
  return p;
}

// days_pearson: every pipeline day equals the direct Approach 3 path.
void check_direct_pearson(const PipelineSpec& spec, const md::Universe& universe,
                          const std::vector<md::Quote>& day,
                          const engine::MasterReport& master, Report& report) {
  const auto bam = direct_bam(day, universe, kDeltaS);
  const auto market = core::compute_market_corr_series(bam, kWindow, false);
  const auto pairs = stats::all_pairs(spec.symbols);
  std::uint64_t trades = 0;
  double pnl = 0.0;
  for (const auto& params : spec.strategies)
    for (std::size_t k = 0; k < pairs.size(); ++k)
      for (const auto& t :
           core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k)) {
        ++trades;
        pnl += t.pnl;
      }
  report.check(check_direct_totals(master, trades, pnl));
}

// day_maronna: a seeded sample of pairs through the per-pair batch path gives
// the trade counts the pipeline ordered for them.
void check_sampled_pairs(const Options& opt, const PipelineSpec& spec,
                         const md::Universe& universe, const std::vector<md::Quote>& day,
                         const engine::MasterReport& master, Report& report) {
  const auto bam = direct_bam(day, universe, kDeltaS);
  const auto pairs = stats::all_pairs(spec.symbols);
  const auto& params = spec.strategies.front();
  std::uint64_t state = generator_seed(opt.seed, 77);
  for (int sample = 0; sample < 50; ++sample) {
    state = generator_seed(state, static_cast<std::uint64_t>(sample));
    const auto& pair = pairs[state % pairs.size()];
    const auto series = core::compute_pair_corr_series(bam[pair.i], bam[pair.j],
                                                       params.ctype, params.corr_window);
    const auto trades = core::run_pair_day(params, bam[pair.i], bam[pair.j], series);
    report.check(check_pair_trades(master, 0, static_cast<std::uint32_t>(pair.i),
                                   static_cast<std::uint32_t>(pair.j), trades.size()));
  }
}

Report run_pipeline_workload(const Options& opt, const PipelineSpec& spec,
                             bool direct_totals) {
  Report report;
  obs::TraceSink sink;  // its epoch precedes every span of the run
  SpanLog spans;
  SpanLog* span_log = opt.trace ? &spans : nullptr;

  // --- set-up: generate the days into a DayCache -------------------------
  const auto universe = md::make_universe(spec.symbols);
  md::GeneratorConfig gen;
  gen.seed = generator_seed(opt.seed, spec.salt);
  std::vector<double> generate_s;
  obs::Registry cache_registry;
  md::DayCache cache(
      [&](const std::string& key) -> mm::Expected<std::vector<md::Quote>> {
        const auto t0 = Clock::now();
        const md::SyntheticDay synthetic(universe, gen, std::stoi(key));
        generate_s.push_back(seconds_since(t0));
        return synthetic.quotes();
      },
      0, &cache_registry);
  std::vector<md::DayCache::Day> days;
  for (int d = 0; d < spec.days; ++d) {
    SpanLog::Scope span(span_log, "setup generate day");
    auto day = cache.get(std::to_string(d));
    if (!day.has_value()) {
      report.check("set-up: day " + std::to_string(d) + ": " + day.error().message);
      return report;
    }
    days.push_back(day.value());
  }
  const std::string universe_key =
      "e2e/" + std::to_string(spec.symbols) + "/" + std::to_string(gen.seed);
  bool needs_maronna = false;
  for (const auto& p : spec.strategies) needs_maronna |= p.ctype != stats::Ctype::pearson;
  const double setup_s = seconds_since(opt.process_start);
  std::fprintf(stderr, "[%s] set-up %.3f s, peak rss %.0f MiB\n", opt.workload.c_str(), setup_s,
               peak_rss_mb());

  // --- timed rounds -------------------------------------------------------
  struct DayRuns {
    engine::PipelineResult cold;
    std::vector<engine::PipelineResult> memo;
  };
  std::vector<DayRuns> first;
  std::vector<double> cold_s, memo_s, untraced_round_s, traced_round_s;
  double timed_s = 0.0;
  double pair_days = 0.0;
  int rounds = 0;
  const double pairs = static_cast<double>(spec.symbols * (spec.symbols - 1) / 2);
  obs::Registry layer_registry;  // traced cold days only
  int traced_days = 0;
  bool sink_used = false;  // the trace keeps the first traced round only

  double peak_rss = 0.0;
  while (more_rounds(opt, rounds, timed_s)) {
    const bool traced = opt.trace && rounds % 2 == 1;
    obs::TraceSink* round_sink = traced && !sink_used ? &sink : nullptr;
    sink_used |= traced;
    stats::CorrStore store;
    std::vector<DayRuns> runs;
    const auto round_t0 = Clock::now();
    for (int d = 0; d < spec.days; ++d) {
      engine::PipelineConfig cfg;
      cfg.symbols = spec.symbols;
      cfg.strategies = spec.strategies;
      cfg.day = days[static_cast<std::size_t>(d)];
      cfg.corr_store = &store;
      cfg.corr_key.universe = universe_key;
      cfg.corr_key.date = d;
      cfg.corr_key.delta_s = kDeltaS;
      cfg.corr_key.window = kWindow;
      cfg.corr_key.estimator = needs_maronna ? "pearson+maronna" : "pearson";
      cfg.trace = round_sink;
      if (round_sink != nullptr)
        cfg.trace_context = obs::make_trace_context(obs::next_trace_id());
      DayRuns day_runs;
      {
        SpanLog::Scope span(traced ? span_log : nullptr, "run_pipeline cold");
        cfg.metrics = traced ? &layer_registry : nullptr;
        const auto t0 = Clock::now();
        day_runs.cold = engine::run_pipeline(cfg, universe, {});
        cold_s.push_back(seconds_since(t0));
      }
      cfg.metrics = nullptr;
      for (int replay = 0; replay < spec.replays; ++replay) {
        SpanLog::Scope span(traced ? span_log : nullptr, "run_pipeline memo");
        const auto t0 = Clock::now();
        day_runs.memo.push_back(engine::run_pipeline(cfg, universe, {}));
        memo_s.push_back(seconds_since(t0));
      }
      runs.push_back(std::move(day_runs));
    }
    const double round_s = seconds_since(round_t0);
    timed_s += round_s;
    (traced ? traced_round_s : untraced_round_s).push_back(round_s);
    progress(opt, rounds, traced, round_s);
    if (rounds == 0) peak_rss = peak_rss_mb();
    traced_days += traced ? spec.days : 0;
    const int runs_per_day = 1 + spec.replays;
    pair_days += runs_per_day * spec.days * pairs * static_cast<double>(spec.strategies.size());
    report.attempted += static_cast<std::uint64_t>(runs_per_day * spec.days);

    // Untimed: every run of a later round equals the first round's.
    for (int d = 0; d < spec.days; ++d) {
      auto& r = runs[static_cast<std::size_t>(d)];
      report.failed += r.cold.degraded;
      for (const auto& memo : r.memo) report.failed += memo.degraded;
      if (rounds == 0) continue;
      const auto& f = first[static_cast<std::size_t>(d)];
      const std::string tag = "day " + std::to_string(d) + " repeated";
      report.check(check_same_books(f.cold.master, r.cold.master, tag));
      for (const auto& memo : r.memo)
        report.check(check_same_books(f.cold.master, memo.master, tag + " memo"));
    }
    const auto store_stats = store.stats();
    report.check(check_count("corr_store.computes per round", store_stats.computes,
                             static_cast<std::uint64_t>(spec.days)));
    report.check(check_count("corr_store.hits per round", store_stats.hits,
                             static_cast<std::uint64_t>(spec.days * spec.replays)));
    if (rounds == 0) first = std::move(runs);
    ++rounds;
  }


  // --- output checks on the first round -----------------------------------
  for (int d = 0; d < spec.days; ++d) {
    const auto& f = first[static_cast<std::size_t>(d)];
    const std::string tag = "day " + std::to_string(d) + ": ";
    std::vector<const engine::PipelineResult*> all = {&f.cold};
    for (const auto& memo : f.memo) all.push_back(&memo);
    for (const auto* run : all) {
      if (auto bad = check_books(run->master); !bad.empty()) report.check(tag + bad);
      if (auto bad = check_intervals(*run, kSmax); !bad.empty()) report.check(tag + bad);
    }
    for (const auto& memo : f.memo)
      report.check(check_same_books(f.cold.master, memo.master, tag + "memoized replay"));
    const auto& quotes = *days[static_cast<std::size_t>(d)];
    if (direct_totals)
      check_direct_pearson(spec, universe, quotes, f.cold.master, report);
    else if (d == 0)
      check_sampled_pairs(opt, spec, universe, quotes, f.cold.master, report);
    report.detail.set(tag + "trades", static_cast<std::int64_t>(f.cold.master.trades));
  }
  const auto cache_stats = cache.stats();
  report.check(check_count("day_cache.misses", cache_stats.misses,
                           static_cast<std::uint64_t>(spec.days)));

  report.detail.set("rounds", rounds);
  report.detail.set("corr_store.computes",
                    static_cast<std::int64_t>(spec.days) * rounds);
  report.detail.set("corr_store.hits",
                    static_cast<std::int64_t>(spec.days * spec.replays) * rounds);
  report.detail.set("day_cache.misses", static_cast<std::int64_t>(cache_stats.misses));

  if (!opt.trace) {
    add_end_to_end(report, pair_days, timed_s, setup_s, peak_rss, cold_s, memo_s);
    return report;
  }
  report.add("md.generate_s", median(generate_s), "s");
  {
    SpanLog::Scope span(span_log, "layer probes");
    probe_layers({&universe, days.front().get(), kDeltaS, kWindow, needs_maronna, true},
                 report, span_log);
  }
  add_pipeline_layers(layer_registry.snapshot(), traced_days, report);
  report.add("obs.trace_overhead_pct", overhead_pct(untraced_round_s, traced_round_s), "%");
  write_trace(opt, &sink, spans, report);
  return report;
}

// ---------------------------------------------------------------------------
// svc_sweeps: a BacktestService fed over loopback TCP.

constexpr std::size_t kSvcSymbols = 30;
constexpr int kSvcDays = 3;
constexpr int kMemoJobs = 10;

svc::JobSpec sweep_spec(const std::string& tenant, std::uint64_t seed, int day) {
  svc::JobSpec spec;
  spec.tenant = tenant;
  spec.symbols = kSvcSymbols;
  spec.seed = seed;
  spec.day = day;
  // Mixed estimators sharing (∆s, M): one unit, one correlation stream.
  for (const auto ctype : {stats::Ctype::pearson, stats::Ctype::maronna,
                           stats::Ctype::combined})
    for (const double divergence : {0.0002, 0.0005})
      spec.paramsets.push_back(paramset(ctype, divergence));
  return spec;
}

Report run_svc_sweeps(const Options& opt) {
  Report report;
  SpanLog spans;
  SpanLog* span_log = opt.trace ? &spans : nullptr;

  // --- set-up: generate the days, start the feed server ------------------
  const auto universe = md::make_universe(kSvcSymbols);
  md::GeneratorConfig gen;
  gen.seed = generator_seed(opt.seed, 3);
  std::map<std::string, std::vector<md::Quote>> generated;
  std::vector<std::string> keys;
  std::vector<double> generate_s;
  for (int d = 0; d < kSvcDays; ++d) {
    SpanLog::Scope span(span_log, "setup generate day");
    const auto t0 = Clock::now();
    const md::SyntheticDay synthetic(universe, gen, d);
    generate_s.push_back(seconds_since(t0));
    keys.push_back(sweep_spec("", gen.seed, d).day_key());
    generated[keys.back()] = synthetic.quotes();
  }
  mm::wire::TcpFeedServer feed(
      [&generated](const std::string& key) -> mm::Expected<std::vector<md::Quote>> {
        const auto it = generated.find(key);
        if (it == generated.end())
          return mm::Error(mm::Errc::not_found, "no such day: " + key);
        return it->second;
      });
  if (auto started = feed.start(0); !started.has_value()) {
    report.check("set-up: feed server: " + started.error().message);
    return report;
  }
  const double setup_s = seconds_since(opt.process_start);
  std::fprintf(stderr, "[%s] set-up %.3f s, peak rss %.0f MiB\n", opt.workload.c_str(), setup_s,
               peak_rss_mb());

  // --- timed rounds: one service per round, one day per service ----------
  std::vector<double> cold_s, memo_s, untraced_round_s, traced_round_s;
  std::map<std::string, std::vector<double>> stage_ms;  // "<stage>.<cold|memo>"
  std::vector<std::optional<svc::JobResult>> first_cold(kSvcDays);
  double timed_s = 0.0;
  double pair_days = 0.0;
  int rounds = 0;
  std::uint64_t computes = 0, hits = 0, misses = 0;
  std::shared_ptr<obs::TraceSink> sink;
  std::optional<obs::Snapshot> cold_layers;
  const double pairs = static_cast<double>(kSvcSymbols * (kSvcSymbols - 1) / 2);

  double peak_rss = 0.0;
  while (more_rounds(opt, rounds, timed_s)) {
    const bool traced = opt.trace && rounds % 2 == 1;
    const int d = rounds % kSvcDays;
    svc::ServiceConfig config;
    config.feed_port = feed.port();
    config.job_traces = traced;
    config.trace_ring_events = 1u << 16;  // a whole cold day fits in the rings
    std::vector<std::shared_ptr<svc::Job>> jobs;

    const auto round_t0 = Clock::now();
    auto service = std::make_unique<svc::BacktestService>(config);
    if (auto started = service->start(); !started.has_value()) {
      report.check("service did not start: " + started.error().message);
      break;
    }
    std::optional<obs::Snapshot> before;
    if (traced && !cold_layers) before = service->registry().snapshot();
    for (int j = 0; j <= kMemoJobs; ++j) {
      SpanLog::Scope span(traced ? span_log : nullptr, j == 0 ? "job cold" : "job memo");
      const auto t0 = Clock::now();
      auto id = service->submit(sweep_spec(j % 2 == 0 ? "tenant-a" : "tenant-b", gen.seed, d));
      const bool done = id.has_value() && service->wait(id.value(), 120000);
      (j == 0 ? cold_s : memo_s).push_back(seconds_since(t0));
      auto job = id.has_value() ? service->find(id.value()) : nullptr;
      if (!done || job == nullptr || job->state.load() != svc::JobState::done) {
        ++report.failed;
        report.check("job " + std::to_string(j) + " of round " + std::to_string(rounds) +
                     " did not finish");
      }
      if (job != nullptr) jobs.push_back(job);
      if (j == 0 && before) cold_layers = service->registry().snapshot().delta(*before);
    }
    const double round_s = seconds_since(round_t0);
    timed_s += round_s;
    (traced ? traced_round_s : untraced_round_s).push_back(round_s);
    progress(opt, rounds, traced, round_s);
    if (rounds == 0) peak_rss = peak_rss_mb();
    report.attempted += kMemoJobs + 1;
    pair_days += (kMemoJobs + 1) * pairs * 6.0;

    // Untimed: memoized = computed, the wire day, and the cache counters.
    if (jobs.size() == kMemoJobs + 1) {
      const auto& cold = jobs.front()->result;
      for (std::size_t j = 1; j < jobs.size(); ++j)
        report.check(check_same_outcomes(cold, jobs[j]->result));
      auto& reference = first_cold[static_cast<std::size_t>(d)];
      if (reference)
        report.check(check_same_outcomes(*reference, cold));
      else
        reference = cold;
      for (std::size_t j = 0; j < jobs.size(); ++j)
        for (const auto& stage : jobs[j]->result.latency)
          stage_ms[stage.stage + (j == 0 ? ".cold" : ".memo")].push_back(
              static_cast<double>(stage.total_ns) / 1e6);
      if (traced && !sink) sink = jobs.front()->trace;
    }
    const auto key = keys[static_cast<std::size_t>(d)];
    if (const auto fetched = service->day_cache().peek(key); fetched != nullptr)
      report.check(check_wire_day(generated[key], *fetched));
    else
      report.check("wire: day " + key + " not resident after the round");
    const auto store_stats = service->corr_store().stats();
    const auto cache_stats = service->day_cache().stats();
    report.check(check_count("corr_store.computes per service", store_stats.computes, 1));
    report.check(check_count("day_cache.misses per service", cache_stats.misses, 1));
    computes += store_stats.computes;
    hits += store_stats.hits;
    misses += cache_stats.misses;
    service->stop();
    ++rounds;
  }
  report.check(check_count("feed sessions", feed.sessions_served(),
                           static_cast<std::uint64_t>(rounds)));
  feed.stop();

  report.detail.set("rounds", rounds);
  report.detail.set("corr_store.computes", static_cast<std::int64_t>(computes));
  report.detail.set("corr_store.hits", static_cast<std::int64_t>(hits));
  report.detail.set("day_cache.misses", static_cast<std::int64_t>(misses));
  for (const auto& [name, values] : stage_ms) {
    const auto dot = name.find('.');
    report.detail.set("svc.stage." + name.substr(0, dot) + "_ms" + name.substr(dot),
                      median(values));
  }

  if (!opt.trace) {
    add_end_to_end(report, pair_days, timed_s, setup_s, peak_rss, cold_s, memo_s);
    return report;
  }
  report.add("md.generate_s", median(generate_s), "s");
  {
    SpanLog::Scope span(span_log, "layer probes");
    probe_layers({&universe, &generated[keys.front()], kDeltaS, kWindow, true, true},
                 report, span_log);
  }
  add_pipeline_layers(cold_layers.value_or(obs::Snapshot{}), 1.0, report);
  report.add("obs.trace_overhead_pct", overhead_pct(untraced_round_s, traced_round_s), "%");
  write_trace(opt, sink.get(), spans, report);
  return report;
}

// ---------------------------------------------------------------------------
// batch_sweep: the §IV Approach 3 path, single-threaded, no transport.

constexpr std::size_t kBatchSymbols = 30;

Report run_batch_sweep(const Options& opt) {
  Report report;
  obs::TraceSink sink;  // its epoch precedes every span of the run
  SpanLog spans;
  SpanLog* span_log = opt.trace ? &spans : nullptr;

  const auto universe = md::make_universe(kBatchSymbols);
  md::GeneratorConfig gen;
  gen.seed = generator_seed(opt.seed, 4);
  double generate_s = 0.0;
  std::vector<md::Quote> day;
  {
    SpanLog::Scope span(span_log, "setup generate day");
    const auto t0 = Clock::now();
    const md::SyntheticDay synthetic(universe, gen, 0);
    day = synthetic.quotes();
    generate_s = seconds_since(t0);
  }
  const core::ParamGrid grid;
  const auto strategies = grid.all();
  const auto windows = grid.distinct_corr_windows();
  const auto pairs = stats::all_pairs(kBatchSymbols);
  const md::Session session;
  const double setup_s = seconds_since(opt.process_start);
  std::fprintf(stderr, "[%s] set-up %.3f s, peak rss %.0f MiB\n", opt.workload.c_str(), setup_s,
               peak_rss_mb());

  std::vector<double> cold_s, memo_s, series_s, untraced_round_s, traced_round_s;
  std::vector<std::uint64_t> first_trades;
  std::vector<double> first_pnl;
  double timed_s = 0.0;
  double pair_days = 0.0;
  int rounds = 0;

  double peak_rss = 0.0;
  while (more_rounds(opt, rounds, timed_s)) {
    const bool traced = opt.trace && rounds % 2 == 1;
    SpanLog* log = traced ? span_log : nullptr;
    std::vector<std::uint64_t> trades(strategies.size(), 0);
    std::vector<double> pnl(strategies.size(), 0.0);
    std::vector<core::MarketCorrSeries> kept;
    std::vector<std::vector<double>> bam;

    const auto round_t0 = Clock::now();
    {
      SpanLog::Scope span(log, "clean + BAM sample");
      md::QuoteCleaner cleaner(kBatchSymbols, md::CleanerConfig{});
      const auto cleaned = cleaner.clean(day);
      bam = md::sample_bam_series(cleaned, kBatchSymbols, session, kDeltaS);
    }
    // The cold job estimates every series of the day; the memoized job
    // replays all 42 paramsets over them.
    double estimate_s = 0.0;
    double replay_s = 0.0;
    for (const auto m : windows) {
      const auto t0 = Clock::now();
      core::MarketCorrSeries series;
      {
        SpanLog::Scope span(log, "compute_market_corr_series");
        series = core::compute_market_corr_series(bam, m, /*need_maronna=*/true);
      }
      estimate_s += seconds_since(t0);
      if (traced) series_s.push_back(seconds_since(t0));
      const auto t1 = Clock::now();
      for (std::size_t p = 0; p < strategies.size(); ++p) {
        if (strategies[p].corr_window != m) continue;
        SpanLog::Scope span(log, "run_pair_day all pairs");
        for (std::size_t k = 0; k < pairs.size(); ++k)
          for (const auto& t : core::run_pair_day(strategies[p], bam[pairs[k].i],
                                                  bam[pairs[k].j], series, k)) {
            ++trades[p];
            pnl[p] += t.pnl;
          }
      }
      replay_s += seconds_since(t1);
      if (rounds == 0) kept.push_back(std::move(series));
    }
    cold_s.push_back(estimate_s);
    memo_s.push_back(replay_s);
    const double round_s = seconds_since(round_t0);
    timed_s += round_s;
    (traced ? traced_round_s : untraced_round_s).push_back(round_s);
    progress(opt, rounds, traced, round_s);
    if (rounds == 0) peak_rss = peak_rss_mb();
    report.attempted += strategies.size();
    pair_days += static_cast<double>(strategies.size() * pairs.size());

    if (rounds > 0) {
      if (trades != first_trades || pnl != first_pnl)
        report.check("batch: round " + std::to_string(rounds) +
                     " trades or P&L differ from the first round's");
    } else {
      // Untimed checks on the first round's series.
      first_trades = trades;
      first_pnl = pnl;
      std::uint64_t state = generator_seed(opt.seed, 99);
      const auto t_a2 = Clock::now();
      std::size_t a2_units = 0;
      for (std::size_t w = 0; w < windows.size(); ++w) {
        report.check(check_corr_range(kept[w]));
        std::vector<SeriesSample> samples;
        for (int s = 0; s < 50; ++s) {
          state = generator_seed(state, static_cast<std::uint64_t>(s));
          const auto span = static_cast<std::uint64_t>(kSmax) - windows[w];
          samples.push_back({state % pairs.size(),
                             windows[w] + static_cast<std::int64_t>((state >> 20) % span)});
        }
        report.check(check_two_pass(kept[w], bam, windows[w], samples));
        // Approach 2 (per-pair batch recompute) on two sampled pairs: the
        // market-wide Maronna series must equal it bit for bit.
        for (int s = 0; s < 2; ++s) {
          state = generator_seed(state, 1000 + static_cast<std::uint64_t>(s));
          const std::size_t k = state % pairs.size();
          const auto per_pair = core::compute_pair_corr_series(
              bam[pairs[k].i], bam[pairs[k].j], stats::Ctype::maronna, windows[w]);
          report.check(check_pair_series(kept[w], k, per_pair));
          ++a2_units;
        }
      }
      report.detail.set("approach2_series_s",
                        seconds_since(t_a2) / static_cast<double>(a2_units));
      std::uint64_t total = 0;
      for (const auto t : trades) total += t;
      report.detail.set("trades", static_cast<std::int64_t>(total));
    }
    ++rounds;
  }
  report.detail.set("rounds", rounds);
  // Approach 3 cost of one (pair, day, paramset) unit, for the README's
  // reference ratio against approach2_series_s.
  report.detail.set("approach3_unit_s", timed_s / pair_days);

  if (!opt.trace) {
    add_end_to_end(report, pair_days, timed_s, setup_s, peak_rss, cold_s, memo_s);
    return report;
  }
  report.add("md.generate_s", generate_s, "s");
  {
    SpanLog::Scope span(span_log, "layer probes");
    probe_layers({&universe, &day, kDeltaS, kWindow, true, false}, report, span_log);
  }
  report.add("stats.corr_series_s", median(series_s), "s");

  // The batch path has no pipeline; one probe day through run_pipeline on the
  // same quotes gives the engine, dagflow and mpmini rows.
  obs::Registry registry;
  {
    SpanLog::Scope span(span_log, "probe run_pipeline");
    engine::PipelineConfig cfg;
    cfg.symbols = kBatchSymbols;
    for (const auto ctype : stats::all_ctypes)
      cfg.strategies.push_back(paramset(ctype, core::ParamGrid::base().divergence));
    cfg.metrics = &registry;
    cfg.trace = &sink;
    cfg.trace_context = obs::make_trace_context(obs::next_trace_id());
    const auto result = engine::run_pipeline(cfg, universe, day);
    report.check(check_books(result.master));
    report.check(check_intervals(result, kSmax));
  }
  add_pipeline_layers(registry.snapshot(), 1.0, report);
  report.add("obs.trace_overhead_pct", overhead_pct(untraced_round_s, traced_round_s), "%");
  write_trace(opt, &sink, spans, report);
  return report;
}

Report run_days_pearson(const Options& opt) {
  PipelineSpec spec;
  spec.symbols = 61;
  spec.days = 4;
  spec.salt = 1;
  for (const double divergence : {0.0002, 0.0005, 0.0010})
    spec.strategies.push_back(paramset(stats::Ctype::pearson, divergence));
  return run_pipeline_workload(opt, spec, /*direct_totals=*/true);
}

Report run_day_maronna(const Options& opt) {
  PipelineSpec spec;
  spec.symbols = 61;
  spec.days = 1;
  spec.replays = 8;
  spec.salt = 2;
  spec.strategies.push_back(paramset(stats::Ctype::maronna, 0.0002));
  return run_pipeline_workload(opt, spec, /*direct_totals=*/false);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"days_pearson", "day_maronna",
                                                 "svc_sweeps", "batch_sweep"};
  return names;
}

Report run_workload(const Options& options) {
  if (options.workload == "days_pearson") return run_days_pearson(options);
  if (options.workload == "day_maronna") return run_day_maronna(options);
  if (options.workload == "svc_sweeps") return run_svc_sweeps(options);
  return run_batch_sweep(options);
}

}  // namespace e2e

#include "probes.hpp"

#include <algorithm>
#include <string>

#include "core/backtester.hpp"
#include "core/params.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/cleaner.hpp"
#include "stats/maronna.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"
#include "wire/feed.hpp"
#include "wire/format.hpp"
#include "wire/parser.hpp"
#include "wire/quote_source.hpp"

namespace e2e {
namespace {

// Loop body timer for layer probes: repeats `body` until at least
// `min_seconds` have passed (and at least `min_reps` times), returning the
// median seconds per call over the repetitions.
template <typename F>
double time_per_call(F&& body, double min_seconds, int min_reps = 3) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         seconds_since(start) < min_seconds) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

// Shortest time one probe repeats for: long enough that a scheduler hiccup
// is a small share of it, short enough that all probes stay a few seconds.
constexpr double kProbeSeconds = 0.25;

}  // namespace

void probe_layers(const ProbeInputs& in, Report& report, SpanLog* spans) {
  namespace md = mm::md;
  const auto& day = *in.day;
  const std::size_t n = in.universe->base_price.size();
  const auto quotes = static_cast<double>(day.size());

  std::vector<md::Quote> cleaned;
  {
    SpanLog::Scope span(spans, "probe md.clean");
    const double s = time_per_call(
        [&] {
          md::QuoteCleaner cleaner(n, md::CleanerConfig{});
          cleaned = cleaner.clean(day);
        },
        kProbeSeconds);
    report.add("md.clean_ns_per_quote", s * 1e9 / quotes, "ns");
  }

  const md::Session session;
  std::vector<std::vector<double>> bam;
  {
    SpanLog::Scope span(spans, "probe md.bam_sample");
    const double s = time_per_call(
        [&] { bam = md::sample_bam_series(cleaned, n, session, in.delta_s); },
        kProbeSeconds);
    report.add("md.bam_sample_ms", s * 1e3, "ms");
  }

  {
    SpanLog::Scope span(spans, "probe wire.fetch_day");
    mm::wire::TcpFeedServer server(
        [&day](const std::string&) -> mm::Expected<std::vector<md::Quote>> { return day; });
    if (auto started = server.start(0); !started.has_value()) {
      report.check("wire probe: feed server did not start: " + started.error().message);
    } else {
      bool ok = true;
      const double s = time_per_call(
          [&] {
            auto fetched = mm::wire::fetch_day("127.0.0.1", server.port(), "probe");
            ok = ok && fetched.has_value() && fetched.value().size() == day.size();
          },
          kProbeSeconds);
      server.stop();
      if (!ok) report.check("wire probe: fetch_day over loopback lost quotes");
      report.add("wire.fetch_day_ms", s * 1e3, "ms");
    }
  }

  {
    SpanLog::Scope span(spans, "probe wire.parse");
    mm::wire::FrameWriter writer;
    for (const auto& q : day) writer.quote(q);
    const auto& stream = writer.bytes();
    constexpr std::size_t kChunk = 1448;  // one TCP segment's payload
    std::uint64_t decoded = 0;
    const double s = time_per_call(
        [&] {
          mm::wire::FrameParser parser;
          mm::wire::FrameView view;
          md::Quote q;
          decoded = 0;
          for (std::size_t off = 0; off < stream.size(); off += kChunk) {
            parser.feed(stream.data() + off, std::min(kChunk, stream.size() - off));
            while (parser.next(&view)) decoded += mm::wire::decode_quote(view, &q);
          }
        },
        kProbeSeconds);
    if (decoded != day.size()) report.check("wire probe: parser decoded a short day");
    report.add("wire.parse_ns_per_quote", s * 1e9 / quotes, "ns");
  }

  // Returns per interval, as the snapshot stage hands them to the windows.
  const auto smax = static_cast<std::size_t>(bam[0].size());
  std::vector<std::vector<double>> returns(smax > 0 ? smax - 1 : 0, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = md::log_returns(bam[i]);
    for (std::size_t t = 0; t + 1 < smax; ++t) returns[t][i] = r[t];
  }
  const auto pairs = mm::stats::all_pairs(n);
  const auto m = static_cast<std::size_t>(in.window);

  {
    SpanLog::Scope span(spans, "probe stats.pearson_step");
    double sink = 0.0;
    const double s = time_per_call(
        [&] {
          mm::stats::ReturnWindows windows(n, m, /*track_cross_sums=*/true);
          for (const auto& step : returns) {
            windows.push(step);
            if (!windows.ready()) continue;
            for (const auto& p : pairs) sink += windows.pearson(p.i, p.j);
          }
        },
        kProbeSeconds);
    if (!(sink == sink)) report.check("stats probe: Pearson produced NaN");
    report.add("stats.pearson_step_us", s * 1e6 / static_cast<double>(returns.size()), "us");
  }

  {
    // Cold Maronna on windows spread across the day: every 8th pair at every
    // 20th interval once the window is full.
    SpanLog::Scope span(spans, "probe stats.maronna_pair");
    std::vector<double> arena;
    std::vector<std::pair<std::size_t, std::size_t>> calls;  // (arena offset, pair)
    mm::stats::ReturnWindows windows(n, m, /*track_cross_sums=*/false);
    for (std::size_t t = 0; t < returns.size(); ++t) {
      windows.push(returns[t]);
      if (!windows.ready() || t % 20 != 0) continue;
      const std::size_t base = arena.size();
      arena.resize(base + n * m);
      windows.unwrap_all(arena.data() + base);
      for (std::size_t k = t % 8; k < pairs.size(); k += 8) calls.push_back({base, k});
    }
    double sink = 0.0;
    const double s = time_per_call(
        [&] {
          for (const auto& [base, k] : calls)
            sink += mm::stats::maronna(arena.data() + base + pairs[k].i * m,
                                       arena.data() + base + pairs[k].j * m, m);
        },
        kProbeSeconds);
    if (!(sink == sink)) report.check("stats probe: Maronna produced NaN");
    report.add("stats.maronna_pair_us", s * 1e6 / static_cast<double>(calls.size()), "us");
  }

  const auto pearson_series =
      mm::core::compute_market_corr_series(bam, in.window, /*need_maronna=*/false);
  if (in.corr_series) {
    SpanLog::Scope span(spans, "probe stats.corr_series");
    const double s = time_per_call(
        [&] {
          (void)mm::core::compute_market_corr_series(bam, in.window, in.maronna);
        },
        0.0, 1);
    report.add("stats.corr_series_s", s, "s");
  }

  {
    SpanLog::Scope span(spans, "probe core.strategy");
    auto params = mm::core::ParamGrid::base();
    params.delta_s = in.delta_s;
    params.corr_window = in.window;
    std::uint64_t trades = 0;
    const double s = time_per_call(
        [&] {
          trades = 0;
          for (std::size_t k = 0; k < pairs.size(); ++k)
            trades += mm::core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j],
                                              pearson_series, k)
                          .size();
        },
        kProbeSeconds);
    report.add("core.strategy_step_ns",
               s * 1e9 / static_cast<double>(pairs.size() * smax), "ns");
    report.detail.set("probe_strategy_trades", static_cast<std::int64_t>(trades));
  }
}

void add_pipeline_layers(const mm::obs::Snapshot& metrics, double days, Report& report) {
  const auto hist = [&](const std::string& name, const char* out) {
    const auto* h = metrics.find(name);
    const double p50 = h != nullptr ? h->quantile(0.5) : 0.0;
    const double total = h != nullptr ? static_cast<double>(h->sum) : 0.0;
    report.add(std::string(out) + ".step_us_p50", p50 / 1e3, "us");
    report.add(std::string(out) + ".total_s", total / 1e9 / days, "s");
  };
  hist("engine.correlation.step_ns", "engine.correlation");
  hist("engine.strategy.step_ns", "engine.strategy");

  // Strategy workers are summed into one "strategy" row: their count varies
  // by workload.
  const auto counter = [&](const std::string& node, const std::string& suffix) {
    double total = 0.0;
    const std::string exact = "dag." + node + suffix;
    const std::string prefix = "dag." + node + "-";
    for (const auto& v : metrics.metrics) {
      if (v.kind != mm::obs::MetricKind::counter) continue;
      const bool match =
          v.name == exact ||
          (v.name.rfind(prefix, 0) == 0 && v.name.size() > suffix.size() &&
           v.name.compare(v.name.size() - suffix.size(), suffix.size(), suffix) == 0);
      if (match) total += static_cast<double>(v.value);
    }
    return total / days;
  };
  for (const char* node : {"collector", "cleaner", "snapshot", "correlation", "strategy"}) {
    report.add(std::string("dag.") + node + ".credit_stall_ms",
               counter(node, ".credit_stall_ns") / 1e6, "ms");
    report.add(std::string("dag.") + node + ".frames_out", counter(node, ".frames_out"),
               "count");
  }
  const auto total = [&](const char* name) {
    const auto* v = metrics.find(name);
    return v != nullptr ? static_cast<double>(v->value) / days : 0.0;
  };
  report.add("mpmini.send.bytes", total("mpmini.send.bytes"), "B");
  report.add("mpmini.send.messages", total("mpmini.send.messages"), "count");
}

}  // namespace e2e

// The checks' own tests. Each check must accept a genuine output and reject
// the same output with one corruption. Genuine outputs come from a small
// real pipeline day (6 symbols), the batch path and a wire round trip, so a
// check that is blind to its corruption fails here rather than passing a
// wrong benchmark run. Run through `python3 e2ebench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "core/params.hpp"
#include "marketdata/generator.hpp"
#include "wire/feed.hpp"
#include "wire/quote_source.hpp"

namespace {

using namespace e2e;
namespace md = mm::md;

int failures = 0;

void expect_pass(const char* name, const std::string& verdict) {
  if (verdict.empty()) return;
  ++failures;
  std::printf("FAIL %s: genuine output rejected: %s\n", name, verdict.c_str());
}

void expect_reject(const char* name, const std::string& verdict) {
  if (!verdict.empty()) {
    std::printf("ok   %s rejected: %s\n", name, verdict.c_str());
    return;
  }
  ++failures;
  std::printf("FAIL %s: corrupted output accepted\n", name);
}

mm::core::StrategyParams params(mm::stats::Ctype ctype) {
  auto p = mm::core::ParamGrid::base();
  p.ctype = ctype;
  p.divergence = 0.0005;
  return p;
}

void test_pipeline_checks(const md::Universe& universe, const std::vector<md::Quote>& quotes) {
  mm::engine::PipelineConfig cfg;
  cfg.symbols = universe.base_price.size();
  cfg.strategies = {params(mm::stats::Ctype::pearson), params(mm::stats::Ctype::maronna)};
  const auto run = mm::engine::run_pipeline(cfg, universe, quotes);
  const auto& master = run.master;
  if (master.trades < 2) {
    ++failures;
    std::printf("FAIL self-test day produced %llu trades; need at least 2\n",
                static_cast<unsigned long long>(master.trades));
    return;
  }

  expect_pass("books", check_books(master));
  {
    auto bad = master;
    bad.order_log[0].price_i *= 1.01;
    expect_reject("books: one order's price", check_books(bad));
  }
  {
    auto bad = master;
    bad.order_log.pop_back();
    --bad.orders;
    expect_reject("books: one order missing", check_books(bad));
  }
  {
    auto bad = master;
    ++bad.entries;
    expect_reject("books: entries != exits", check_books(bad));
  }
  {
    auto bad = master;
    bad.net_shares[bad.order_log[0].symbol_i] = 5.0;
    expect_reject("books: symbol not flat", check_books(bad));
  }
  {
    auto bad = master;
    bad.total_pnl += 1.0;
    expect_reject("books: P&L off the cash flow", check_books(bad));
  }

  expect_pass("intervals", check_intervals(run, 780));
  {
    auto bad = run;
    for (auto& stage : bad.stages)
      if (stage.name == "snapshot") stage.items_out = 779;
    expect_reject("intervals: snapshot short", check_intervals(bad, 780));
  }
  {
    auto bad = run;
    for (auto& stage : bad.stages)
      if (stage.name == "correlation") stage.items_out = 781;
    expect_reject("intervals: correlation long", check_intervals(bad, 780));
  }

  expect_pass("same books", check_same_books(master, master, "self"));
  {
    auto bad = master;
    bad.order_log.back().shares_j = std::nextafter(bad.order_log.back().shares_j, 1e300);
    expect_reject("same books: one order's last bit", check_same_books(master, bad, "self"));
  }
  {
    auto bad = master;
    auto& s = bad.strategy_summaries.back();
    s.total_pnl = std::nextafter(s.total_pnl, 1e300);
    expect_reject("same books: strategy P&L's last bit", check_same_books(master, bad, "self"));
  }

  // Direct Approach 3 path for the Pearson strategy alone.
  mm::engine::PipelineConfig pearson_cfg = cfg;
  pearson_cfg.strategies = {params(mm::stats::Ctype::pearson)};
  const auto pearson_run = mm::engine::run_pipeline(pearson_cfg, universe, quotes);
  const auto bam = direct_bam(quotes, universe, 30);
  const auto market = mm::core::compute_market_corr_series(bam, 100, false);
  const auto pairs = mm::stats::all_pairs(cfg.symbols);
  std::uint64_t trades = 0;
  double pnl = 0.0;
  std::size_t traded_pair = 0;
  std::uint64_t traded_pair_trades = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto t = mm::core::run_pair_day(pearson_cfg.strategies[0], bam[pairs[k].i],
                                          bam[pairs[k].j], market, k);
    trades += t.size();
    for (const auto& trade : t) pnl += trade.pnl;
    if (t.size() > traded_pair_trades) {
      traded_pair = k;
      traded_pair_trades = t.size();
    }
  }
  expect_pass("direct totals", check_direct_totals(pearson_run.master, trades, pnl));
  expect_reject("direct totals: one trade more",
                check_direct_totals(pearson_run.master, trades + 1, pnl));
  expect_reject("direct totals: P&L off by 1e-6",
                check_direct_totals(pearson_run.master, trades, pnl + 1e-6 * std::max(1.0, std::fabs(pnl))));

  const auto i = static_cast<std::uint32_t>(pairs[traded_pair].i);
  const auto j = static_cast<std::uint32_t>(pairs[traded_pair].j);
  expect_pass("pair trades", check_pair_trades(pearson_run.master, 0, i, j, traded_pair_trades));
  expect_reject("pair trades: one more",
                check_pair_trades(pearson_run.master, 0, i, j, traded_pair_trades + 1));
  expect_reject("pair trades: wrong strategy",
                check_pair_trades(pearson_run.master, 1, i, j, traded_pair_trades));
}

void test_series_checks(const md::Universe& universe, const std::vector<md::Quote>& quotes) {
  const auto bam = direct_bam(quotes, universe, 30);
  const auto market = mm::core::compute_market_corr_series(bam, 100, true);
  const std::vector<SeriesSample> samples = {{0, 100}, {3, 400}, {14, 779}};

  expect_pass("corr range", check_corr_range(market));
  {
    auto bad = market;
    bad.maronna[2][500] = 1.5;
    expect_reject("corr range: 1.5", check_corr_range(bad));
  }
  {
    auto bad = market;
    bad.pearson[1][300] = std::nan("");
    expect_reject("corr range: NaN", check_corr_range(bad));
  }

  expect_pass("two-pass pearson", check_two_pass(market, bam, 100, samples));
  {
    auto bad = market;
    bad.pearson[3][400] += 1e-7;
    expect_reject("two-pass pearson: 1e-7 off", check_two_pass(bad, bam, 100, samples));
  }

  const auto per_pair = mm::core::compute_pair_corr_series(bam[0], bam[1],
                                                           mm::stats::Ctype::maronna, 100);
  expect_pass("pair series", check_pair_series(market, 0, per_pair));
  {
    auto bad = per_pair;
    bad.values[600] = std::nextafter(bad.values[600], 2.0);
    expect_reject("pair series: last bit", check_pair_series(market, 0, bad));
  }
}

void test_service_checks(const std::vector<md::Quote>& quotes) {
  mm::svc::JobResult computed;
  computed.trades = 3;
  computed.orders = 6;
  computed.paramsets = {{0, 2, 1.25, {0.01, -0.002}}, {1, 1, -0.5, {-0.003}}};
  expect_pass("same outcomes", check_same_outcomes(computed, computed));
  {
    auto bad = computed;
    bad.paramsets[1].total_pnl = std::nextafter(bad.paramsets[1].total_pnl, 0.0);
    expect_reject("same outcomes: P&L's last bit", check_same_outcomes(computed, bad));
  }
  {
    auto bad = computed;
    bad.paramsets[0].trade_returns[1] = -0.0021;
    expect_reject("same outcomes: one trade return", check_same_outcomes(computed, bad));
  }

  // A real loopback round trip is the genuine output.
  mm::wire::TcpFeedServer server(
      [&quotes](const std::string&) -> mm::Expected<std::vector<md::Quote>> { return quotes; });
  if (!server.start(0).has_value()) {
    ++failures;
    std::printf("FAIL feed server did not start\n");
    return;
  }
  const auto fetched = mm::wire::fetch_day("127.0.0.1", server.port(), "day");
  server.stop();
  if (!fetched.has_value()) {
    ++failures;
    std::printf("FAIL fetch_day: %s\n", fetched.error().message.c_str());
    return;
  }
  expect_pass("wire day", check_wire_day(quotes, fetched.value()));
  {
    auto bad = fetched.value();
    bad.pop_back();
    expect_reject("wire day: one quote lost", check_wire_day(quotes, bad));
  }
  {
    auto bad = fetched.value();
    bad[bad.size() / 2].bid += 0.01;
    expect_reject("wire day: one bid changed", check_wire_day(quotes, bad));
  }

  expect_pass("count", check_count("feed sessions", 3, 3));
  expect_reject("count: one extra", check_count("feed sessions", 4, 3));
}

}  // namespace

int main() {
  const auto universe = md::make_universe(6);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  const md::SyntheticDay day(universe, gen, 0);
  test_pipeline_checks(universe, day.quotes());
  test_series_checks(universe, day.quotes());
  test_service_checks(day.quotes());
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

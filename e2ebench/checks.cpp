#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

#include "marketdata/bars.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/cleaner.hpp"

namespace e2e {
namespace {

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

auto order_tuple(const mm::engine::Order& o) {
  return std::make_tuple(o.strategy_id, o.interval, o.symbol_i, o.symbol_j,
                         o.is_entry, o.shares_i, o.shares_j, o.price_i, o.price_j);
}

// Two-pass Pearson over the window of log returns ending at interval s.
double two_pass_pearson(const std::vector<double>& prices_i,
                        const std::vector<double>& prices_j, std::int64_t s,
                        std::int64_t window) {
  // Return r[t] = log(p[t+1] / p[t]) belongs to interval t+1; the window at
  // interval s is r[s−M .. s−1].
  std::vector<double> x, y;
  for (std::int64_t t = s - window; t < s; ++t) {
    const auto u = static_cast<std::size_t>(t);
    x.push_back(std::log(prices_i[u + 1] / prices_i[u]));
    y.push_back(std::log(prices_j[u + 1] / prices_j[u]));
  }
  double mx = 0.0, my = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    mx += x[k];
    my += y[k];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    sxy += (x[k] - mx) * (y[k] - my);
    sxx += (x[k] - mx) * (x[k] - mx);
    syy += (y[k] - my) * (y[k] - my);
  }
  return (sxx > 0.0 && syy > 0.0) ? sxy / std::sqrt(sxx * syy) : 0.0;
}

// FNV-1a over every field of every quote.
std::uint64_t quote_checksum(const std::vector<mm::md::Quote>& quotes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < size; ++k) {
      h ^= p[k];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& q : quotes) {
    mix(&q.ts_ms, sizeof(q.ts_ms));
    mix(&q.symbol, sizeof(q.symbol));
    mix(&q.bid, sizeof(q.bid));
    mix(&q.ask, sizeof(q.ask));
    mix(&q.bid_size, sizeof(q.bid_size));
    mix(&q.ask_size, sizeof(q.ask_size));
  }
  return h;
}

}  // namespace

std::string check_books(const mm::engine::MasterReport& m) {
  if (m.entries != m.trades || m.exits != m.trades)
    return fmt("books: %.0f entries / %.0f exits for trades", static_cast<double>(m.entries),
               static_cast<double>(m.exits)) +
           " " + std::to_string(m.trades);
  if (m.orders != m.entries + m.exits || m.order_log.size() != m.orders)
    return fmt("books: %.0f orders, %.0f in the log, expected two per round trip",
               static_cast<double>(m.orders), static_cast<double>(m.order_log.size()));
  if (m.trade_returns.size() != m.trades)
    return "books: trade_returns count differs from trades";

  double cash = 0.0;
  double gross = 0.0;
  std::map<std::uint32_t, std::pair<double, double>> net;  // symbol -> (net, gross)
  std::uint64_t entries = 0;
  for (const auto& o : m.order_log) {
    cash -= o.shares_i * o.price_i + o.shares_j * o.price_j;
    gross += std::fabs(o.shares_i * o.price_i) + std::fabs(o.shares_j * o.price_j);
    net[o.symbol_i].first += o.shares_i;
    net[o.symbol_i].second += std::fabs(o.shares_i);
    net[o.symbol_j].first += o.shares_j;
    net[o.symbol_j].second += std::fabs(o.shares_j);
    entries += o.is_entry != 0;
  }
  if (entries != m.entries) return "books: order log entry flags differ from entries";
  if (std::fabs(cash - m.total_pnl) > 1e-9 * std::max(1.0, gross))
    return fmt("books: cash flow %.12g != total P&L %.12g", cash, m.total_pnl);
  for (const auto& [symbol, position] : net)
    if (std::fabs(position.first) > 1e-9 * std::max(1.0, position.second))
      return fmt("books: symbol %.0f not flat at the close (%.3g shares)",
                 static_cast<double>(symbol), position.first);
  for (const auto& [symbol, shares] : m.net_shares)
    if (std::fabs(shares) > 1e-9 * std::max(1.0, net[symbol].second))
      return fmt("books: master reports symbol %.0f at %.3g shares", symbol, shares);

  std::uint64_t summary_trades = 0;
  double summary_pnl = 0.0;
  for (const auto& s : m.strategy_summaries) {
    summary_trades += s.trades;
    summary_pnl += s.total_pnl;
  }
  if (summary_trades != m.trades)
    return "books: per-strategy trades do not add up to the total";
  if (std::fabs(summary_pnl - m.total_pnl) > 1e-9 * std::max(1.0, gross))
    return fmt("books: per-strategy P&L %.12g != total %.12g", summary_pnl, m.total_pnl);
  return {};
}

std::string check_intervals(const mm::engine::PipelineResult& result,
                            std::uint64_t smax) {
  int seen = 0;
  for (const auto& stage : result.stages) {
    if (stage.name != "snapshot" && stage.name != "correlation") continue;
    ++seen;
    if (stage.items_out != smax)
      return stage.name + " emitted " + std::to_string(stage.items_out) +
             " intervals, expected " + std::to_string(smax);
  }
  if (seen != 2) return "intervals: snapshot or correlation stage missing";
  if (result.degraded) return "pipeline reported a degraded run";
  return {};
}

std::string check_same_books(const mm::engine::MasterReport& expected,
                             const mm::engine::MasterReport& actual,
                             const std::string& what) {
  if (expected.orders != actual.orders || expected.trades != actual.trades)
    return what + ": order or trade count differs";
  // Orders from different strategy workers interleave in arrival order, so
  // the log is compared as a multiset, each order bit for bit.
  auto a = expected.order_log;
  auto b = actual.order_log;
  const auto less = [](const auto& x, const auto& y) {
    return order_tuple(x) < order_tuple(y);
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto& x = a[k];
    const auto& y = b[k];
    if (x.strategy_id != y.strategy_id || x.interval != y.interval ||
        x.symbol_i != y.symbol_i || x.symbol_j != y.symbol_j ||
        x.is_entry != y.is_entry || !same_bits(x.shares_i, y.shares_i) ||
        !same_bits(x.shares_j, y.shares_j) || !same_bits(x.price_i, y.price_i) ||
        !same_bits(x.price_j, y.price_j))
      return what + ": order logs differ";
  }
  if (expected.strategy_summaries.size() != actual.strategy_summaries.size())
    return what + ": strategy summary count differs";
  for (std::size_t w = 0; w < expected.strategy_summaries.size(); ++w) {
    const auto& x = expected.strategy_summaries[w];
    const auto& y = actual.strategy_summaries[w];
    if (x.strategy_id != y.strategy_id || x.trades != y.trades ||
        !same_bits(x.total_pnl, y.total_pnl) ||
        x.trade_returns.size() != y.trade_returns.size())
      return what + ": strategy " + std::to_string(w) + " summary differs";
    for (std::size_t t = 0; t < x.trade_returns.size(); ++t)
      if (!same_bits(x.trade_returns[t], y.trade_returns[t]))
        return what + ": strategy " + std::to_string(w) + " trade returns differ";
  }
  if (std::fabs(expected.total_pnl - actual.total_pnl) >
      1e-9 * std::max(1.0, std::fabs(expected.total_pnl)))
    return what + fmt(": total P&L %.12g vs %.12g", expected.total_pnl, actual.total_pnl);
  return {};
}

std::vector<std::vector<double>> direct_bam(const std::vector<mm::md::Quote>& quotes,
                                            const mm::md::Universe& universe,
                                            std::int64_t delta_s) {
  const std::size_t n = universe.base_price.size();
  mm::md::QuoteCleaner cleaner(n, mm::md::CleanerConfig{});
  const auto cleaned = cleaner.clean(quotes);
  const mm::md::Session session;
  auto bam = mm::md::sample_bam_series(cleaned, n, session, delta_s);
  // sample_bam_series backfills a symbol's leading intervals from its first
  // quote; the snapshot stage seeds them from the base price instead.
  std::vector<bool> seen(n, false);
  std::size_t qi = 0;
  const auto smax = static_cast<std::size_t>(session.interval_count(delta_s));
  for (std::size_t s = 0; s < smax; ++s) {
    const auto end = session.interval_end(static_cast<std::int64_t>(s), delta_s);
    for (; qi < cleaned.size() && cleaned[qi].ts_ms < end; ++qi)
      seen[cleaned[qi].symbol] = true;
    for (std::size_t i = 0; i < n; ++i)
      if (!seen[i]) bam[i][s] = universe.base_price[i];
  }
  return bam;
}

std::string check_direct_totals(const mm::engine::MasterReport& master,
                                std::uint64_t direct_trades, double direct_pnl) {
  if (master.trades != direct_trades)
    return fmt("direct path: pipeline %.0f trades, Approach 3 %.0f",
               static_cast<double>(master.trades), static_cast<double>(direct_trades));
  if (std::fabs(master.total_pnl - direct_pnl) > 1e-9 * std::max(1.0, std::fabs(direct_pnl)))
    return fmt("direct path: pipeline P&L %.12g, Approach 3 %.12g", master.total_pnl,
               direct_pnl);
  return {};
}

std::string check_pair_trades(const mm::engine::MasterReport& master,
                              std::int32_t strategy_id, std::uint32_t i,
                              std::uint32_t j, std::uint64_t expected_trades) {
  std::uint64_t entries = 0;
  std::uint64_t exits = 0;
  for (const auto& o : master.order_log) {
    if (o.strategy_id != strategy_id || o.symbol_i != i || o.symbol_j != j) continue;
    (o.is_entry != 0 ? entries : exits) += 1;
  }
  if (entries != expected_trades || exits != expected_trades)
    return "pair (" + std::to_string(i) + "," + std::to_string(j) + "): pipeline " +
           std::to_string(entries) + " entries / " + std::to_string(exits) +
           " exits, per-pair batch path " + std::to_string(expected_trades) + " trades";
  return {};
}

std::string check_corr_range(const mm::core::MarketCorrSeries& series) {
  const auto in_range = [&](const std::vector<std::vector<double>>& values,
                            const char* name) -> std::string {
    for (std::size_t k = 0; k < values.size(); ++k)
      for (std::int64_t s = series.first_valid; s < series.smax; ++s) {
        const double v = values[k][static_cast<std::size_t>(s)];
        if (!(v >= -1.0 && v <= 1.0))
          return std::string(name) + fmt(" value %.6g out of [-1, 1] at pair %.0f", v,
                                         static_cast<double>(k));
      }
    return {};
  };
  if (auto bad = in_range(series.pearson, "pearson"); !bad.empty()) return bad;
  return in_range(series.maronna, "maronna");
}

std::string check_two_pass(const mm::core::MarketCorrSeries& series,
                           const std::vector<std::vector<double>>& bam,
                           std::int64_t window,
                           const std::vector<SeriesSample>& samples) {
  const auto pairs = mm::stats::all_pairs(bam.size());
  for (const auto& sample : samples) {
    const auto [i, j] = pairs[sample.pair];
    const double expected = two_pass_pearson(bam[i], bam[j], sample.s, window);
    const double actual = series.pearson[sample.pair][static_cast<std::size_t>(sample.s)];
    if (std::fabs(expected - actual) > 1e-9)
      return fmt("pearson %.15g != two-pass %.15g", actual, expected) + " at pair " +
             std::to_string(sample.pair) + " interval " + std::to_string(sample.s);
  }
  return {};
}

std::string check_pair_series(const mm::core::MarketCorrSeries& market,
                              std::size_t pair_index,
                              const mm::core::CorrSeries& per_pair) {
  if (per_pair.first_valid != market.first_valid ||
      static_cast<std::int64_t>(per_pair.values.size()) != market.smax)
    return "maronna: per-pair series shape differs";
  for (std::int64_t s = market.first_valid; s < market.smax; ++s) {
    const auto u = static_cast<std::size_t>(s);
    if (!same_bits(market.maronna[pair_index][u], per_pair.values[u]))
      return fmt("maronna: market-wide %.17g != per-pair %.17g", market.maronna[pair_index][u],
                 per_pair.values[u]) +
             " at pair " + std::to_string(pair_index);
  }
  return {};
}

std::string check_same_outcomes(const mm::svc::JobResult& computed,
                                const mm::svc::JobResult& memoized) {
  if (computed.paramsets.size() != memoized.paramsets.size() ||
      computed.trades != memoized.trades || computed.orders != memoized.orders)
    return "memoized job: paramset, trade or order count differs from the computed job";
  for (std::size_t k = 0; k < computed.paramsets.size(); ++k) {
    const auto& a = computed.paramsets[k];
    const auto& b = memoized.paramsets[k];
    if (a.index != b.index || a.trades != b.trades || !same_bits(a.total_pnl, b.total_pnl) ||
        a.trade_returns.size() != b.trade_returns.size())
      return "memoized job: paramset " + std::to_string(k) + " differs";
    for (std::size_t t = 0; t < a.trade_returns.size(); ++t)
      if (!same_bits(a.trade_returns[t], b.trade_returns[t]))
        return "memoized job: paramset " + std::to_string(k) + " trade returns differ";
  }
  return {};
}

std::string check_wire_day(const std::vector<mm::md::Quote>& generated,
                           const std::vector<mm::md::Quote>& received) {
  if (generated.size() != received.size())
    return "wire: received " + std::to_string(received.size()) + " quotes, generated " +
           std::to_string(generated.size());
  if (quote_checksum(generated) != quote_checksum(received))
    return "wire: received day's checksum differs from the generated day's";
  return {};
}

std::string check_count(const std::string& what, std::uint64_t actual,
                        std::uint64_t expected) {
  if (actual == expected) return {};
  return what + " = " + std::to_string(actual) + ", expected " + std::to_string(expected);
}

}  // namespace e2e

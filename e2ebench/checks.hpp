// Output checks. Each returns an empty string when the output passes and a
// one-line reason when it does not. They compare against properties the
// method must have or against computations made apart from the pipeline,
// never against a stored copy of an earlier output. selftest.cpp feeds each
// one a corrupted result and expects a rejection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/backtester.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/symbols.hpp"
#include "marketdata/types.hpp"
#include "svc/job.hpp"

namespace e2e {

// Books of one pipeline day: two orders per round trip (entries == exits ==
// trades), every symbol flat at the close, and the cash-flow identity
// Σ −(shares_i·price_i + shares_j·price_j) over the order log == Σ trade P&L
// within 1e-9 of the gross cash flow (the paramsets carry no costs).
std::string check_books(const mm::engine::MasterReport& master);

// The snapshot and correlation stages each emitted exactly `smax` intervals.
std::string check_intervals(const mm::engine::PipelineResult& result,
                            std::uint64_t smax);

// Two runs over the same inputs produced bit-identical books (orders, trades,
// P&L, per-strategy summaries). Used for memoized vs computed, and for every
// later round vs the first.
std::string check_same_books(const mm::engine::MasterReport& expected,
                             const mm::engine::MasterReport& actual,
                             const std::string& what);

// The direct (non-streaming) path: the pipeline's own cleaning, BAM sampling
// with the snapshot stage's base-price seeding. Built from md:: calls alone.
std::vector<std::vector<double>> direct_bam(const std::vector<mm::md::Quote>& quotes,
                                            const mm::md::Universe& universe,
                                            std::int64_t delta_s);

// Pipeline trades and P&L equal the Approach 3 totals.
std::string check_direct_totals(const mm::engine::MasterReport& master,
                                std::uint64_t direct_trades, double direct_pnl);

// Round trips the pipeline recorded for pair (i, j) under strategy
// `strategy_id` equal `expected_trades` (from the per-pair batch path).
std::string check_pair_trades(const mm::engine::MasterReport& master,
                              std::int32_t strategy_id, std::uint32_t i,
                              std::uint32_t j, std::uint64_t expected_trades);

// Every valid value of every series of `series` lies in [−1, 1].
std::string check_corr_range(const mm::core::MarketCorrSeries& series);

// Sampled Pearson values of `series` (pair k at interval s) equal a two-pass
// Pearson over the window of log returns r[s−M .. s−1], computed from the
// BAM prices, within 1e-9.
struct SeriesSample {
  std::size_t pair = 0;
  std::int64_t s = 0;
};
std::string check_two_pass(const mm::core::MarketCorrSeries& series,
                           const std::vector<std::vector<double>>& bam,
                           std::int64_t window,
                           const std::vector<SeriesSample>& samples);

// The market-wide Maronna series of pair k equals the per-pair batch
// (Approach 2) series bit for bit.
std::string check_pair_series(const mm::core::MarketCorrSeries& market,
                              std::size_t pair_index,
                              const mm::core::CorrSeries& per_pair);

// A memoized job's per-paramset outcomes equal the computed job's, bit for
// bit.
std::string check_same_outcomes(const mm::svc::JobResult& computed,
                                const mm::svc::JobResult& memoized);

// Quotes that crossed the wire equal the generated day in count and checksum.
std::string check_wire_day(const std::vector<mm::md::Quote>& generated,
                           const std::vector<mm::md::Quote>& received);

// A counter equals the number of distinct things it counts.
std::string check_count(const std::string& what, std::uint64_t actual,
                        std::uint64_t expected);

}  // namespace e2e

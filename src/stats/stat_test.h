#ifndef RESTORE_STATS_STAT_TEST_H_
#define RESTORE_STATS_STAT_TEST_H_

// Two-sample statistical tests over column distributions.
//
// Three complementary measures, all deterministic and allocation-light:
//
//  * Two-sample Kolmogorov–Smirnov — the max ECDF gap, exact over raw
//    samples (KsTwoSample) or evaluated at the shared bin edges of two
//    aligned ColumnSummaries (KsFromSummaries; categorical summaries are
//    treated as ordinal over the reference label order, which is the "KS
//    distance on the biased column" of the drift roadmap item). The p-value
//    uses the standard asymptotic Kolmogorov distribution.
//  * Pearson χ² homogeneity test over two count vectors, with
//    small-expected-count buckets merged into a rest bucket first (the
//    classical validity rule) — the categorical-column test.
//  * Population Stability Index — a cheap threshold monitor (no p-value;
//    industry rule of thumb: < 0.1 stable, > 0.25 shifted).
//
// Consumers: the Db's drift-triggered refresh scores the live snapshot
// against each model's training-time reference summaries (ScoreDrift); the
// distribution-equivalence harness (equivalence.h) runs the same tests on
// sampled completions of two Db configurations.

#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "storage/database.h"

namespace restore {

struct KsResult {
  /// sup_x |F_1(x) - F_2(x)|, in [0, 1].
  double statistic = 0.0;
  /// Asymptotic two-sided p-value (1 when either sample is empty).
  double p_value = 1.0;
  uint64_t n1 = 0;
  uint64_t n2 = 0;
};

/// Exact two-sample KS over raw samples (the vectors are sorted in place;
/// pass copies if you need the originals). NaNs must be filtered out by the
/// caller (column nulls never reach here).
KsResult KsTwoSample(std::vector<double> a, std::vector<double> b);

/// KS between two summaries on the same grid (build `cur` with
/// SummarizeAgainst(ref, ...)): the max CDF gap across the shared buckets.
/// Exact for the binned distributions; a lower bound on the raw-sample
/// statistic. Categorical pairs compare CDFs over the reference label order.
KsResult KsFromSummaries(const ColumnSummary& ref, const ColumnSummary& cur);

struct Chi2Result {
  double statistic = 0.0;
  /// Degrees of freedom after bucket merging (0 when fewer than two viable
  /// buckets remain — statistic 0, p-value 1: no evidence either way).
  double df = 0.0;
  double p_value = 1.0;
  /// Buckets folded into the rest bucket by the min-expected-count rule.
  size_t merged_buckets = 0;
};

/// Pearson χ² two-sample homogeneity test over parallel count vectors
/// (bucket i of `a` and `b` must mean the same thing). Buckets whose
/// pooled-expected count falls below `min_expected` are merged into one rest
/// bucket before the statistic is computed.
Chi2Result ChiSquaredTwoSample(const std::vector<double>& a,
                               const std::vector<double>& b,
                               double min_expected = 5.0);

/// Population Stability Index between two parallel count vectors:
/// sum_i (p_i - q_i) * ln(p_i / q_i) over proportions floored at a small
/// epsilon (so empty buckets contribute finitely). Symmetric, >= 0,
/// 0 iff the proportions match exactly.
double Psi(const std::vector<double>& ref, const std::vector<double>& cur);

/// PSI over two aligned summaries' buckets.
double PsiFromSummaries(const ColumnSummary& ref, const ColumnSummary& cur);

/// Two-sided asymptotic p-value of a two-sample KS statistic `d` at sample
/// sizes n1, n2 (Kolmogorov distribution tail with the standard
/// finite-sample correction).
double KolmogorovPValue(double d, double n1, double n2);

/// Upper-tail p-value of a χ² statistic at `df` degrees of freedom
/// (regularized incomplete gamma Q(df/2, x/2)).
double ChiSquaredPValue(double statistic, double df);

/// Aggregate drift of a model's training-time reference summaries against
/// the current snapshot: per column, the live data is re-binned on the
/// reference grid and scored; the worst column wins.
struct DriftScore {
  /// False when there are no reference summaries to score against — ks/psi
  /// read 0 and a drift-triggered refresh never fires.
  bool available = false;
  /// Max per-column KS statistic (numeric grids and ordinal categorical).
  double ks = 0.0;
  /// Max per-column PSI.
  double psi = 0.0;
  /// "table.column" attaining the max KS statistic (ties: first wins).
  std::string worst_column;
};

/// Scores `refs` against `current`. Columns whose table or column vanished
/// from the snapshot are skipped; an empty `refs` yields available == false.
DriftScore ScoreDrift(const std::vector<ColumnSummary>& refs,
                      const Database& current);

}  // namespace restore

#endif  // RESTORE_STATS_STAT_TEST_H_

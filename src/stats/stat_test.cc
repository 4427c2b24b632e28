#include "stats/stat_test.h"

#include <algorithm>
#include <cmath>

namespace restore {

namespace {

/// Proportion floor of the PSI (keeps empty buckets finite).
constexpr double kPsiEpsilon = 1e-6;

/// Regularized lower incomplete gamma P(a, x) by series expansion
/// (converges fast for x < a + 1).
double GammaPSeries(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Regularized upper incomplete gamma Q(a, x) by Lentz's continued
/// fraction (converges fast for x >= a + 1).
double GammaQContinuedFraction(double a, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

/// KS over two already-aligned bucket-count vectors (max CDF gap).
double BinnedKsStatistic(const std::vector<double>& a,
                         const std::vector<double>& b, double total_a,
                         double total_b) {
  double ca = 0.0, cb = 0.0, d = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    ca += a[i];
    cb += b[i];
    d = std::max(d, std::fabs(ca / total_a - cb / total_b));
  }
  return d;
}

}  // namespace

double KolmogorovPValue(double d, double n1, double n2) {
  if (d <= 0.0 || n1 <= 0.0 || n2 <= 0.0) return 1.0;
  const double ne = n1 * n2 / (n1 + n2);
  const double sqrt_ne = std::sqrt(ne);
  const double lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d;
  // Q_KS(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    if (term < 1e-16) break;
    sign = -sign;
  }
  const double p = 2.0 * sum;
  return std::min(1.0, std::max(0.0, p));
}

double ChiSquaredPValue(double statistic, double df) {
  if (df <= 0.0 || statistic <= 0.0) return 1.0;
  const double a = df / 2.0;
  const double x = statistic / 2.0;
  const double q = x < a + 1.0 ? 1.0 - GammaPSeries(a, x)
                               : GammaQContinuedFraction(a, x);
  return std::min(1.0, std::max(0.0, q));
}

KsResult KsTwoSample(std::vector<double> a, std::vector<double> b) {
  KsResult out;
  out.n1 = a.size();
  out.n2 = b.size();
  if (a.empty() || b.empty()) return out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t i = 0, j = 0;
  double d = 0.0;
  // Merge walk over the pooled order statistics: after consuming every
  // sample <= x, the ECDF gap at x is |i/na - j/nb|. Ties advance both
  // cursors past the tied value before the gap is evaluated, which is the
  // exact two-sample statistic.
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  // The remaining tail of the longer sample only shrinks toward (1, 1).
  out.statistic = d;
  out.p_value = KolmogorovPValue(d, na, nb);
  return out;
}

KsResult KsFromSummaries(const ColumnSummary& ref, const ColumnSummary& cur) {
  KsResult out;
  out.n1 = ref.total;
  out.n2 = cur.total;
  if (ref.total == 0 || cur.total == 0) return out;
  out.statistic =
      BinnedKsStatistic(ref.counts, cur.counts,
                        static_cast<double>(ref.total),
                        static_cast<double>(cur.total));
  out.p_value = KolmogorovPValue(out.statistic,
                                 static_cast<double>(ref.total),
                                 static_cast<double>(cur.total));
  return out;
}

Chi2Result ChiSquaredTwoSample(const std::vector<double>& a,
                               const std::vector<double>& b,
                               double min_expected) {
  Chi2Result out;
  const size_t buckets = std::min(a.size(), b.size());
  double na = 0.0, nb = 0.0;
  for (size_t i = 0; i < buckets; ++i) {
    na += a[i];
    nb += b[i];
  }
  const double total = na + nb;
  if (na <= 0.0 || nb <= 0.0) return out;  // one side empty: no evidence
  // Merge buckets whose expected count in the SMALLER sample falls below
  // min_expected into one rest bucket (the classical validity rule for the
  // χ² approximation). The rest bucket itself joins the test only if it
  // clears the same bar.
  const double smaller = std::min(na, nb);
  std::vector<double> ka, kb;
  double rest_a = 0.0, rest_b = 0.0;
  for (size_t i = 0; i < buckets; ++i) {
    const double pooled = a[i] + b[i];
    if (pooled * smaller / total < min_expected) {
      rest_a += a[i];
      rest_b += b[i];
      ++out.merged_buckets;
    } else {
      ka.push_back(a[i]);
      kb.push_back(b[i]);
    }
  }
  if ((rest_a + rest_b) * smaller / total >= min_expected) {
    ka.push_back(rest_a);
    kb.push_back(rest_b);
  } else if (!ka.empty()) {
    // Sub-threshold remainder folds into the last viable bucket so no mass
    // is dropped from the test.
    ka.back() += rest_a;
    kb.back() += rest_b;
  }
  if (ka.size() < 2) return out;  // df 0: statistic 0, p-value 1
  double stat = 0.0;
  for (size_t i = 0; i < ka.size(); ++i) {
    const double pooled = ka[i] + kb[i];
    const double ea = pooled * na / total;
    const double eb = pooled * nb / total;
    if (ea > 0.0) stat += (ka[i] - ea) * (ka[i] - ea) / ea;
    if (eb > 0.0) stat += (kb[i] - eb) * (kb[i] - eb) / eb;
  }
  out.statistic = stat;
  out.df = static_cast<double>(ka.size() - 1);
  out.p_value = ChiSquaredPValue(stat, out.df);
  return out;
}

double Psi(const std::vector<double>& ref, const std::vector<double>& cur) {
  const size_t buckets = std::min(ref.size(), cur.size());
  double nr = 0.0, nc = 0.0;
  for (size_t i = 0; i < buckets; ++i) {
    nr += ref[i];
    nc += cur[i];
  }
  if (nr <= 0.0 || nc <= 0.0) return 0.0;
  double psi = 0.0;
  for (size_t i = 0; i < buckets; ++i) {
    const double p = std::max(kPsiEpsilon, ref[i] / nr);
    const double q = std::max(kPsiEpsilon, cur[i] / nc);
    psi += (p - q) * std::log(p / q);
  }
  return psi;
}

double PsiFromSummaries(const ColumnSummary& ref, const ColumnSummary& cur) {
  if (ref.total == 0 || cur.total == 0) return 0.0;
  return Psi(ref.counts, cur.counts);
}

DriftScore ScoreDrift(const std::vector<ColumnSummary>& refs,
                      const Database& current) {
  DriftScore score;
  if (refs.empty()) return score;
  score.available = true;
  for (const ColumnSummary& ref : refs) {
    Result<const Table*> table = current.GetTable(ref.table);
    if (!table.ok()) continue;
    const Column* col = nullptr;
    for (const Column& c : (*table)->columns()) {
      if (c.name() == ref.column) {
        col = &c;
        break;
      }
    }
    if (col == nullptr) continue;
    const ColumnSummary cur = SummarizeAgainst(ref, *col);
    const double ks = KsFromSummaries(ref, cur).statistic;
    if (ks > score.ks) {
      score.ks = ks;
      score.worst_column = ref.table + "." + ref.column;
    }
    score.psi = std::max(score.psi, PsiFromSummaries(ref, cur));
  }
  return score;
}

}  // namespace restore

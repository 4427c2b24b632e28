#include "metrics/metrics.h"

#include <cmath>

namespace restore {

namespace {

double GroupError(const std::vector<double>& truth,
                  const std::vector<double>& est) {
  double err = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double t = truth[i];
    const double e = i < est.size() ? est[i] : 0.0;
    if (t == 0.0) {
      err += e == 0.0 ? 0.0 : 1.0;
    } else {
      err += std::abs(e - t) / std::abs(t);
    }
    ++n;
  }
  return n == 0 ? 0.0 : err / static_cast<double>(n);
}

}  // namespace

double AverageRelativeError(const ResultSet& truth,
                            const ResultSet& estimate) {
  if (truth.num_rows() == 0) return 0.0;
  double total = 0.0;
  std::vector<std::string> key(truth.num_key_columns());
  std::vector<double> truth_vals(truth.num_value_columns());
  std::vector<double> est_vals(estimate.num_value_columns());
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    for (size_t c = 0; c < key.size(); ++c) key[c] = truth.key(r, c);
    const int64_t er = estimate.FindRow(key);
    if (er < 0) {
      total += 1.0;  // missing group: 100% relative error
      continue;
    }
    for (size_t c = 0; c < truth_vals.size(); ++c) {
      truth_vals[c] = truth.value(r, c);
    }
    for (size_t c = 0; c < est_vals.size(); ++c) {
      est_vals[c] = estimate.value(static_cast<size_t>(er), c);
    }
    total += GroupError(truth_vals, est_vals);
  }
  return total / static_cast<double>(truth.num_rows());
}

double RelativeErrorImprovement(const ResultSet& truth,
                                const ResultSet& incomplete,
                                const ResultSet& completed) {
  return AverageRelativeError(truth, incomplete) -
         AverageRelativeError(truth, completed);
}

Result<double> ColumnMean(const Table& table, const std::string& column) {
  RESTORE_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column));
  double sum = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (col->IsNull(r)) continue;
    sum += col->GetNumeric(r);
    ++n;
  }
  if (n == 0) {
    return Status::FailedPrecondition("column has no non-null values");
  }
  return sum / static_cast<double>(n);
}

Result<double> CategoricalFraction(const Table& table,
                                   const std::string& column,
                                   const std::string& value) {
  RESTORE_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column));
  if (col->type() != ColumnType::kCategorical) {
    return Status::InvalidArgument("column is not categorical");
  }
  if (table.NumRows() == 0) {
    return Status::FailedPrecondition("empty table");
  }
  auto code = col->dictionary()->Lookup(value);
  if (!code.ok()) return 0.0;
  size_t hits = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (!col->IsNull(r) && col->GetCode(r) == code.value()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(table.NumRows());
}

double BiasReduction(double true_stat, double incomplete_stat,
                     double completed_stat) {
  const double original_bias = std::abs(true_stat - incomplete_stat);
  if (original_bias < 1e-12) return 1.0;  // nothing to correct
  return 1.0 - std::abs(completed_stat - true_stat) / original_bias;
}

double CardinalityCorrection(size_t complete_rows, size_t incomplete_rows,
                             size_t completed_rows) {
  const double denom = std::abs(static_cast<double>(incomplete_rows) -
                                static_cast<double>(complete_rows));
  if (denom < 1e-12) return 1.0;
  const double num = std::abs(static_cast<double>(completed_rows) -
                              static_cast<double>(complete_rows));
  return 1.0 - num / denom;
}

}  // namespace restore

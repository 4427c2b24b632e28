#ifndef RESTORE_METRICS_METRICS_H_
#define RESTORE_METRICS_METRICS_H_

#include <string>

#include "common/result.h"
#include "exec/result_set.h"
#include "storage/table.h"

namespace restore {

/// Average relative error of an estimated query result against the truth
/// (Section 2.1): for group-by queries, the mean over all TRUE result groups
/// of |est - truth| / |truth|; groups missing from the estimate contribute an
/// error of 1. Aggregates are averaged when the SELECT list has several.
/// Truth rows are visited in key order.
double AverageRelativeError(const ResultSet& truth,
                            const ResultSet& estimate);

/// Relative error improvement achieved by completion (Fig 8):
///   Er(incomplete, truth) - Er(completed, truth).
double RelativeErrorImprovement(const ResultSet& truth,
                                const ResultSet& incomplete,
                                const ResultSet& completed);

/// Mean of a numeric column, skipping NULLs. Errors if no values.
Result<double> ColumnMean(const Table& table, const std::string& column);

/// Fraction of rows of a categorical column equal to `value` (NULLs count in
/// the denominator as non-matching).
Result<double> CategoricalFraction(const Table& table,
                                   const std::string& column,
                                   const std::string& value);

/// Bias reduction for a continuous attribute (Equation 2):
///   1 - |avg_completed - avg_true| / |avg_true - avg_incomplete|.
/// The same formula applies to categorical attributes with fractions in
/// place of averages. Unbounded below (a completion can overshoot), 1 is a
/// perfect correction; returns 1 when the incomplete data was already exact.
double BiasReduction(double true_stat, double incomplete_stat,
                     double completed_stat);

/// Cardinality correction (Section 7.3):
///   1 - | |completed| - |complete| | / | |incomplete| - |complete| |.
double CardinalityCorrection(size_t complete_rows, size_t incomplete_rows,
                             size_t completed_rows);

}  // namespace restore

#endif  // RESTORE_METRICS_METRICS_H_

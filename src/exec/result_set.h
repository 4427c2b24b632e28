#ifndef RESTORE_EXEC_RESULT_SET_H_
#define RESTORE_EXEC_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_control.h"
#include "exec/query.h"

namespace restore {

class ResultSet;

/// A view over one fixed-size row batch of a ResultSet. Cheap to copy;
/// valid as long as the owning ResultSet is alive and unmoved.
struct ResultBatch {
  const ResultSet* set = nullptr;
  size_t begin = 0;  // absolute index of the first row of this batch
  size_t rows = 0;   // rows in this batch (the last batch may be short)

  /// Group-key cell `col` of batch-relative row `row`.
  const std::string& key(size_t row, size_t col) const;
  /// Aggregate cell `col` of batch-relative row `row`.
  double value(size_t row, size_t col) const;
};

/// The result of a completed (or classical) aggregate query: a
/// schema-carrying columnar row set streamed through a fixed-size batch
/// cursor, plus the per-query ExecStats.
///
/// Rows are ordered by group key (lexicographically over the rendered key
/// cells), which is exactly the order the old map-based QueryResult
/// iterated in — so streams, ToString(), and metrics over a ResultSet are
/// bit-identical to the pre-redesign surface. Queries without GROUP BY
/// yield a single row with zero key columns.
///
/// Typical streaming consumption:
///   RESTORE_ASSIGN_OR_RETURN(ResultSet rs, session.Execute(sql, options));
///   ResultBatch batch;
///   while (rs.NextBatch(&batch)) {
///     for (size_t r = 0; r < batch.rows; ++r) Use(batch.value(r, 0));
///   }
class ResultSet {
 public:
  ResultSet() = default;

  /// Builds the columnar set from the aggregation output. `grouped` rows
  /// land in key order (std::map iteration order). `stats` is adopted as
  /// the query's final accounting; `batch_rows` sets the cursor granularity
  /// (clamped to >= 1).
  static ResultSet Build(const Query& query, QueryResult grouped,
                         ExecStats stats, size_t batch_rows);

  // ---- Schema ---------------------------------------------------------------
  /// Group-by column names, in GROUP BY order.
  const std::vector<std::string>& key_columns() const { return key_names_; }
  /// Aggregate column names in SELECT-list order, rendered like
  /// "AVG(apartment.price)".
  const std::vector<std::string>& value_columns() const {
    return value_names_;
  }
  size_t num_rows() const { return num_rows_; }
  size_t num_key_columns() const { return key_names_.size(); }
  size_t num_value_columns() const { return value_names_.size(); }

  // ---- Streaming cursor -----------------------------------------------------
  size_t batch_rows() const { return batch_rows_; }
  /// Fills `*batch` with the next at-most-batch_rows() rows; false at end.
  bool NextBatch(ResultBatch* batch);
  /// Resets the cursor to the first row.
  void Rewind() { cursor_ = 0; }

  // ---- Random access --------------------------------------------------------
  const std::string& key(size_t row, size_t col) const {
    return key_cols_[col][row];
  }
  double value(size_t row, size_t col) const {
    return value_cols_[col][row];
  }
  /// Index of the row whose key cells equal `key`, or -1. Rows are sorted
  /// by key, but result sets are small; linear scan keeps this simple.
  int64_t FindRow(const std::vector<std::string>& key) const;
  /// value(FindRow(key), col), or `fallback` when the group is absent.
  double ValueOr(const std::vector<std::string>& key, size_t col,
                 double fallback) const;

  // ---- Accounting -----------------------------------------------------------
  const ExecStats& stats() const { return stats_; }
  ExecStats* mutable_stats() { return &stats_; }

  // ---- Rendering ------------------------------------------------------------
  /// Same rendering as the old QueryResult::ToString.
  std::string ToString() const;

  /// DATA equality: row keys and aggregate values, bit for bit. Column
  /// NAMES are excluded (a prepared query renders qualified names where the
  /// same ad-hoc SQL keeps the user's spelling), and so are ExecStats (the
  /// same answer served from cache carries different timings).
  friend bool operator==(const ResultSet& a, const ResultSet& b) {
    return a.key_cols_ == b.key_cols_ && a.value_cols_ == b.value_cols_;
  }
  friend bool operator!=(const ResultSet& a, const ResultSet& b) {
    return !(a == b);
  }

 private:
  std::vector<std::string> key_names_;
  std::vector<std::string> value_names_;
  // Columnar storage: key_cols_[c][r] / value_cols_[c][r].
  std::vector<std::vector<std::string>> key_cols_;
  std::vector<std::vector<double>> value_cols_;
  size_t num_rows_ = 0;
  size_t batch_rows_ = 256;
  size_t cursor_ = 0;
  ExecStats stats_;
};

inline const std::string& ResultBatch::key(size_t row, size_t col) const {
  return set->key(begin + row, col);
}
inline double ResultBatch::value(size_t row, size_t col) const {
  return set->value(begin + row, col);
}

}  // namespace restore

#endif  // RESTORE_EXEC_RESULT_SET_H_

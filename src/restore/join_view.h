#ifndef RESTORE_RESTORE_JOIN_VIEW_H_
#define RESTORE_RESTORE_JOIN_VIEW_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace restore {

/// One path table's share of a join held as row ids (late materialization,
/// see IncompletenessJoinExecutor): per join row, the id of the row it
/// reads. An id below `base->NumRows()` is a row of the snapshot's table; a
/// larger id is row `id - base->NumRows()` of `synthesized`, which holds
/// tuples synthesized for the table, with the base table's columns.
struct JoinPart {
  const Table* base = nullptr;
  Table synthesized;
  /// The join's name of each base column ("table.column").
  std::vector<std::string> names;
  std::vector<size_t> ids;
};

/// One column of a JoinView.
class JoinColumn {
 public:
  /// `synthesized` may be null when every id is a base row; null `ids` make
  /// join row r base row r.
  JoinColumn(const std::string* name, const Column* base,
             const Column* synthesized, const std::vector<size_t>* ids)
      : name_(name),
        base_(base),
        synthesized_(synthesized),
        ids_(ids),
        base_rows_(base->size()) {}

  const std::string& name() const { return *name_; }
  /// The cell type, shared by the base and the synthesized column.
  ColumnType type() const { return base_->type(); }

  /// The column and row that hold join row `r`'s cell.
  std::pair<const Column*, size_t> Locate(size_t r) const {
    if (ids_ == nullptr) return {base_, r};
    const size_t id = (*ids_)[r];
    if (id < base_rows_) return {base_, id};
    return {synthesized_, id - base_rows_};
  }
  int64_t GetInt64(size_t r) const {
    const auto [column, row] = Locate(r);
    return column->GetInt64(row);
  }
  bool IsNull(size_t r) const {
    const auto [column, row] = Locate(r);
    return column->IsNull(row);
  }

  /// The column written out: one cell per join row, named name().
  Column Materialize() const;

 private:
  const std::string* name_;
  const Column* base_;
  const Column* synthesized_;
  const std::vector<size_t>* ids_;
  size_t base_rows_;
};

/// Read access to the cells of a join, whether it is written out as a Table
/// or held as row ids per path table. PathModel's completion-time entry
/// points read their evidence through it, so the same code serves the
/// executor's id-held joins and callers that pass a plain Table.
class JoinView {
 public:
  /// Every column of `table`, row for row. Implicit: a Table is a view of
  /// itself.
  JoinView(const Table& table);  // NOLINT(google-explicit-constructor)
  /// The join of `parts` (columns in part order), one row per entry of each
  /// part's ids; all parts must hold the same number of ids. `name` names
  /// the join in error messages. Both must outlive the view.
  JoinView(const std::vector<JoinPart>& parts, const std::string& name);

  size_t NumRows() const { return num_rows_; }
  const std::vector<JoinColumn>& columns() const { return columns_; }

  /// The column `name` resolves to, by ResolveColumn's rules.
  Result<JoinColumn> Resolve(const std::string& name) const;
  /// True if some column is qualified by `table` ("table.<column>").
  bool JoinsTable(const std::string& table) const;

 private:
  const std::string* name_;
  size_t num_rows_ = 0;
  std::vector<JoinColumn> columns_;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_JOIN_VIEW_H_

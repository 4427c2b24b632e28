#ifndef RESTORE_STORAGE_TABLE_H_
#define RESTORE_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"

namespace restore {

/// Declarative description of one column (name + type).
struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// An in-memory table: a list of equally-sized typed columns.
///
/// Column names inside a table are unique. Joined intermediate results use
/// qualified names ("table.column") produced by the executor.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}
  Table(std::string name, const std::vector<ColumnSpec>& specs);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumRows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t NumColumns() const { return columns_.size(); }

  /// Adds an empty column. Fails if the name already exists or if the table
  /// already has rows.
  Status AddColumn(const std::string& name, ColumnType type);
  /// Adds a fully-populated column (size must match existing rows).
  Status AddColumn(Column column);

  /// Index of a column by (exact) name.
  Result<size_t> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }
  Result<const Column*> GetColumn(const std::string& name) const;
  Result<Column*> GetMutableColumn(const std::string& name);

  const std::vector<Column>& columns() const { return columns_; }

  /// Appends one row given as dynamically-typed values (size must equal
  /// NumColumns()).
  Status AppendRow(const std::vector<Value>& row);

  /// Returns a new table with only the rows in `rows` (in that order).
  Table GatherRows(const std::vector<size_t>& rows) const;

  /// Returns a new table with only the named columns.
  Result<Table> Project(const std::vector<std::string>& column_names) const;

  /// Renames every column to "<prefix>.<name>" unless already qualified.
  void QualifyColumnNames(const std::string& prefix);

  /// Human-readable preview of up to `max_rows` rows (for examples/tests).
  std::string ToString(size_t max_rows = 10) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
};

}  // namespace restore

#endif  // RESTORE_STORAGE_TABLE_H_

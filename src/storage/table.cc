#include "storage/table.h"

#include <sstream>

#include "common/string_util.h"

namespace restore {

Table::Table(std::string name, const std::vector<ColumnSpec>& specs)
    : name_(std::move(name)) {
  for (const auto& spec : specs) {
    columns_.emplace_back(spec.name, spec.type);
  }
}

Status Table::AddColumn(const std::string& name, ColumnType type) {
  if (HasColumn(name)) {
    return Status::AlreadyExists(
        StrFormat("column '%s' already exists in table '%s'", name.c_str(),
                  name_.c_str()));
  }
  if (NumRows() > 0) {
    return Status::FailedPrecondition(
        "cannot add an empty column to a non-empty table");
  }
  columns_.emplace_back(name, type);
  return Status::OK();
}

Status Table::AddColumn(Column column) {
  if (HasColumn(column.name())) {
    return Status::AlreadyExists(
        StrFormat("column '%s' already exists in table '%s'",
                  column.name().c_str(), name_.c_str()));
  }
  if (!columns_.empty() && column.size() != NumRows()) {
    return Status::InvalidArgument(
        StrFormat("column '%s' has %zu rows, table '%s' has %zu",
                  column.name().c_str(), column.size(), name_.c_str(),
                  NumRows()));
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return Status::NotFound(StrFormat("column '%s' not found in table '%s'",
                                    name.c_str(), name_.c_str()));
}

bool Table::HasColumn(const std::string& name) const {
  return ColumnIndex(name).ok();
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  RESTORE_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
  return &columns_[idx];
}

Result<Column*> Table::GetMutableColumn(const std::string& name) {
  RESTORE_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table '%s' has %zu columns",
                  row.size(), name_.c_str(), columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    RESTORE_RETURN_IF_ERROR(columns_[i].AppendValue(row[i]));
  }
  return Status::OK();
}

Table Table::GatherRows(const std::vector<size_t>& rows) const {
  Table out(name_);
  for (const auto& col : columns_) {
    out.columns_.push_back(col.Gather(rows));
  }
  return out;
}

Result<Table> Table::Project(
    const std::vector<std::string>& column_names) const {
  Table out(name_);
  for (const auto& cname : column_names) {
    RESTORE_ASSIGN_OR_RETURN(const Column* col, GetColumn(cname));
    out.columns_.push_back(*col);
  }
  return out;
}

void Table::QualifyColumnNames(const std::string& prefix) {
  for (auto& col : columns_) {
    if (col.name().find('.') == std::string::npos) {
      col.set_name(prefix + "." + col.name());
    }
  }
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << name_ << " [" << NumRows() << " rows]\n";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << " | ";
    os << columns_[i].name();
  }
  os << "\n";
  const size_t n = std::min(max_rows, NumRows());
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) os << " | ";
      os << columns_[i].GetValue(r).ToString();
    }
    os << "\n";
  }
  if (NumRows() > n) os << "... (" << (NumRows() - n) << " more)\n";
  return os.str();
}

}  // namespace restore
